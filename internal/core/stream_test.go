package core

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"doubleplay/internal/trace"
)

// TestStreamedRecordingMatchesBuffered: for every golden recording, the
// file a streaming sink writes as the recording runs holds the events a
// sink that kept the same recording's events splices into a stream, event
// for event once re-homed onto the splice's track, and streaming leaves
// Stats bit-identical.
func TestStreamedRecordingMatchesBuffered(t *testing.T) {
	runs := goldenRuns
	if testing.Short() {
		runs = runs[:4]
	}
	for _, g := range runs {
		kept := trace.NewSink()
		keptRes := goldenRecord(t, g, kept, nil)
		out, spliced := streamSink(t)
		out.Splice(kept, 0, 1, 0)
		want := spliced()

		stream, events := streamSink(t)
		res := goldenRecord(t, g, stream, nil)
		got := events()
		for i := range got {
			got[i].Pid = 1
			if got[i].Ph != trace.PhaseCounter && got[i].Ph != trace.PhaseMeta {
				got[i].Tid = 0
			}
		}

		if keptRes.Stats != res.Stats {
			t.Errorf("%s/%d: streaming perturbed Stats:\nkept     %+v\nstreamed %+v",
				g.name, g.workers, keptRes.Stats, res.Stats)
		}
		if len(got) == 0 || len(got) != stream.Len() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%d: streamed file (%d of %d events) differs from the kept sink spliced (%d events)",
				g.name, g.workers, len(got), stream.Len(), len(want))
		}
	}
}

// TestMetricsScrapeDuringRecording serves the registry over HTTP and
// scrapes it concurrently while recordings run, checking the exporter is
// safe against a live registry and always yields parseable output.
func TestMetricsScrapeDuringRecording(t *testing.T) {
	reg := trace.NewRegistry()
	srv, err := trace.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stop atomic.Bool
	scrapes := make(chan error, 1)
	go func() {
		var firstErr error
		for !stop.Load() {
			resp, err := http.Get("http://" + srv.Addr + "/metrics")
			if err != nil {
				firstErr = err
				break
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				firstErr = err
				break
			}
			if resp.StatusCode != http.StatusOK {
				firstErr = fmt.Errorf("scrape status %d", resp.StatusCode)
				break
			}
			_ = body
		}
		scrapes <- firstErr
	}()

	for _, g := range []goldenRun{{"kvdb", 2, 394579, 14}, {"racey", 2, 212463, 3}} {
		res := goldenRecord(t, g, nil, reg)
		if res.Stats.CompletionCycles != g.cycles {
			t.Errorf("%s/%d: cycles %d, want %d (scraping must not perturb recording)",
				g.name, g.workers, res.Stats.CompletionCycles, g.cycles)
		}
	}
	stop.Store(true)
	if err := <-scrapes; err != nil {
		t.Fatalf("concurrent scrape failed: %v", err)
	}

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "doubleplay_record_epochs") {
		t.Fatalf("final scrape missing epoch counters:\n%.500s", body)
	}
}
