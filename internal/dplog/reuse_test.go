package dplog_test

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/workloads"
)

// TestDecodeAtReuse decodes every section of the committed logs and of
// four recorded ones — webserve, kvdb, sigping and a certified sigping —
// compressed and raw, forwards, backwards and in stride-3 order, all into
// one reused EpochLog. Each decode must equal a fresh EpochAt of the same
// section field for field (nil and empty alike): nothing a larger epoch
// left in the buffer may show through a smaller one.
//
// Then the same logs are read through an io.ReaderAt, whose fetches go
// into pooled frame buffers: eight goroutines share each reader, every
// one alternating a section of a large log with one of a small log, and
// each decode must equal the fresh in-memory one. A frame given back to
// the pool while its payload is still being decoded, or one frame buffer
// per reader, shows up as wrong epochs or CRC failures, and under -race
// as a race. Last, Verify, which decodes into a pooled EpochLog, must
// refuse a small log with a truncated body right after passing a large
// one, with the error decoding into fresh EpochLogs gives.
func TestDecodeAtReuse(t *testing.T) {
	logs := map[string][]byte{}
	for _, name := range []string{"v6_comp.dplog", "v6_raw.dplog"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		logs[name] = data
	}
	recs := map[string]*dplog.Recording{}
	for _, name := range []string{"webserve", "kvdb", "sigping"} {
		recs[name] = recordOne(t, name)
	}
	bt := workloads.Get("sigping").Build(workloads.Params{Workers: 2, Seed: 17})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: 2, SpareCPUs: 2, Seed: 17, VerifyPolicy: core.VerifyCertified,
	})
	if err != nil || res.Stats.VerifySkipped == 0 {
		t.Fatalf("certified sigping: err %v, %d epochs certified", err, res.Stats.VerifySkipped)
	}
	recs["sigping-certified"] = res.Recording
	for name, rec := range recs {
		logs[name+"/raw"] = dplog.MarshalBytesWith(rec, dplog.EncodeOptions{})
		logs[name+"/compressed"] = dplog.MarshalBytesWith(rec, dplog.EncodeOptions{Compress: true})
	}

	var buf dplog.EpochLog
	for name, data := range logs {
		rd, err := dplog.OpenReaderBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := rd.NumSections()
		var forward, reverse, stride3 []int
		for pos := 0; pos < n; pos++ {
			forward = append(forward, pos)
			reverse = append(reverse, n-1-pos)
		}
		for first := 0; first < 3; first++ {
			for pos := first; pos < n; pos += 3 {
				stride3 = append(stride3, pos)
			}
		}
		for _, order := range [][]int{forward, reverse, stride3} {
			for _, pos := range order {
				fresh, err := rd.EpochAt(pos)
				if err != nil {
					t.Fatalf("%s: EpochAt(%d): %v", name, pos, err)
				}
				if err := rd.DecodeAt(pos, &buf); err != nil {
					t.Fatalf("%s: DecodeAt(%d): %v", name, pos, err)
				}
				if !reflect.DeepEqual(dplog.NormalizeEpoch(&buf), dplog.NormalizeEpoch(fresh)) {
					t.Fatalf("%s: section %d decoded into a reused EpochLog differs from a fresh decode", name, pos)
				}
			}
		}
	}

	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(len(logs[a]), len(logs[b])) })
	for i := 0; i < len(names)/2; i++ {
		decodeConcurrently(t, logs, names[len(names)-1-i], names[i])
	}

	large := logs[names[len(names)-1]]
	cut := dplog.CutBody(t, logs["v6_raw.dplog"], 1)
	for _, open := range []func([]byte) (*dplog.Reader, error){
		dplog.OpenReaderBytes,
		func(b []byte) (*dplog.Reader, error) { return dplog.OpenReader(bytes.NewReader(b), int64(len(b))) },
	} {
		big, err := open(large)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := open(cut)
		if err != nil || rd.Recovered() {
			t.Fatalf("cut body: open err %v, recovered %v; want an intact index", err, rd != nil && rd.Recovered())
		}
		var fresh error
		for pos := 0; pos < rd.NumSections() && fresh == nil; pos++ {
			fresh = rd.DecodeAt(pos, new(dplog.EpochLog))
		}
		if fresh == nil {
			t.Fatal("cut body: every section decodes into a fresh EpochLog")
		}
		for round := 0; round < 4; round++ {
			if err := big.Verify(); err != nil {
				t.Fatalf("%s: Verify: %v", names[len(names)-1], err)
			}
			if err := rd.Verify(); err == nil || err.Error() != fresh.Error() {
				t.Fatalf("cut body after a large log: Verify err %v, a fresh EpochLog gives %v", err, fresh)
			}
		}
	}
}

// decodeConcurrently decodes every section of the large and the small log
// through readers over an io.ReaderAt, from eight goroutines that share
// both readers. Each goroutine alternates the two logs, starts at its own
// section, and decodes into one EpochLog of its own; every result must
// equal a fresh EpochAt of the in-memory log.
func decodeConcurrently(t *testing.T, logs map[string][]byte, large, small string) {
	type log struct {
		name string
		rd   *dplog.Reader
		want []*dplog.EpochLog
	}
	var pair [2]log
	for i, name := range []string{large, small} {
		data := logs[name]
		mem, err := dplog.OpenReaderBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rd, err := dplog.OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: through a ReaderAt: %v", name, err)
		}
		pair[i] = log{name: name, rd: rd}
		for pos := 0; pos < mem.NumSections(); pos++ {
			ep, err := mem.EpochAt(pos)
			if err != nil {
				t.Fatalf("%s: EpochAt(%d): %v", name, pos, err)
			}
			pair[i].want = append(pair[i].want, dplog.NormalizeEpoch(ep))
		}
	}
	steps := max(len(pair[0].want), len(pair[1].want))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf dplog.EpochLog
			for k := g; k < g+steps; k++ {
				for _, l := range pair {
					pos := k % len(l.want)
					if err := l.rd.DecodeAt(pos, &buf); err != nil {
						t.Errorf("%s: DecodeAt(%d) through a ReaderAt: %v", l.name, pos, err)
						return
					}
					if !reflect.DeepEqual(dplog.NormalizeEpoch(&buf), l.want[pos]) {
						t.Errorf("%s: section %d decoded through a ReaderAt differs from a fresh in-memory decode", l.name, pos)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
