package dplog_test

import (
	"os"
	"path/filepath"
	"reflect"
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
func TestDecodeAtReuse(t *testing.T) {
	logs := map[string][]byte{}
	for _, name := range []string{"v4.dplog", "v5.dplog", "v6_comp.dplog", "v6_raw.dplog"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if data, _, err = dplog.Upgrade(data); err != nil {
			t.Fatalf("%s: %v", name, err)
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
}
