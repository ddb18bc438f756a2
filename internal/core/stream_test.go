package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"doubleplay/internal/trace"
)

// TestStreamedRecordingMatchesBuffered: for every golden recording, the
// file a streaming sink writes as the recording runs is byte for byte
// WriteJSON of a sink that kept the same recording's events, and streaming
// leaves Stats bit-identical.
func TestStreamedRecordingMatchesBuffered(t *testing.T) {
	runs := goldenRuns
	if testing.Short() {
		runs = runs[:4]
	}
	for _, g := range runs {
		kept := trace.NewSink()
		keptRes := goldenRecord(t, g, kept, nil)
		var want bytes.Buffer
		if err := kept.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}

		var streamed bytes.Buffer
		stream := trace.NewStreamSink(&streamed, 0)
		res := goldenRecord(t, g, stream, nil)
		if err := stream.Close(); err != nil {
			t.Fatalf("%s/%d: close stream: %v", g.name, g.workers, err)
		}

		if keptRes.Stats != res.Stats {
			t.Errorf("%s/%d: streaming perturbed Stats:\nkept     %+v\nstreamed %+v",
				g.name, g.workers, keptRes.Stats, res.Stats)
		}
		if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
			t.Errorf("%s/%d: streamed file (%d bytes, %d events) differs from WriteJSON (%d bytes, %d events)",
				g.name, g.workers, streamed.Len(), stream.Len(), want.Len(), kept.Len())
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
