package main

// The `doubleplay log` group: offline tooling over .dplog artifacts.
//
//	doubleplay log inspect -log pbzip.dplog            # header, section table, index health
//	doubleplay log inspect -log pbzip.dplog -epoch 3   # one section's frame + boundary info
//	doubleplay log upgrade -log bad.dplog [-o new]     # rewrite a damaged log's index in place
//	doubleplay log extract -log a.dplog -epochs 3..5 -o sub.dplog
//
// `log inspect` works off the section index and decodes each section on
// its own, so it also diagnoses truncated or damaged files: a body that
// does not decode prints its error in that section's row. docs/FORMAT.md
// documents the byte layout these tools read.

import (
	"fmt"
	"os"
	"path/filepath"

	"doubleplay/internal/dplog"
)

// openLog opens path as a random-access log reader. The file stays open
// for the life of the process — the reader fetches section bytes lazily.
// A retired v4/v5 file does not open: the error names the last build
// that converts it.
func openLog(path string) *dplog.Reader {
	f, err := os.Open(path)
	check(err)
	st, err := f.Stat()
	check(err)
	rd, err := dplog.OpenReader(f, st.Size())
	if err != nil {
		fatal(fmt.Sprintf("%s: %v", path, err))
	}
	return rd
}

// logInspect prints a log's header, per-section table, and index health;
// each row decodes its section and counts what that epoch logged. epoch
// >= 0 selects one section: its frame and decoded boundary info print
// instead of the whole table.
func logInspect(path string, epoch int) {
	st, err := os.Stat(path)
	check(err)
	rd := openLog(path)
	h := rd.Header()

	fmt.Printf("file:      %s (%d bytes)\n", path, st.Size())
	fmt.Printf("format:    dplog v%d (sectioned, seekable)\n", h.Version)
	fmt.Printf("program:   %s  workers: %d  seed: %d  quantum: %d\n", h.Program, h.Workers, h.Seed, h.Quantum)
	fmt.Printf("hashes:    final %016x  output %016x\n", h.FinalHash, h.OutputHash)
	fmt.Printf("sections:  %d\n", rd.NumSections())

	if rd.Recovered() {
		fmt.Printf("index:     RECOVERED — trailer missing or damaged; %d sections salvaged by scan\n", rd.NumSections())
		fmt.Printf("hint:      'doubleplay log upgrade -log %s' rewrites the salvaged sections with a fresh index\n", path)
	} else {
		fmt.Printf("index:     ok (%d entries, crc verified)\n", rd.NumSections())
	}

	if epoch >= 0 {
		logInspectEpoch(rd, epoch)
		return
	}
	if rd.NumSections() == 0 {
		return
	}
	fmt.Printf("\n  %5s %9s %8s %8s %6s  %-5s %s\n", "epoch", "offset", "stored", "raw", "ratio", "flags", "body")
	var totStored, totRaw int64
	for i, s := range rd.Sections() {
		flags := ""
		if s.Compressed() {
			flags += "C"
		}
		if s.Certified() {
			flags += "V"
		}
		if flags == "" {
			flags = "-"
		}
		var body string
		if ep, err := rd.EpochAt(i); err != nil {
			body = "ERROR: " + err.Error()
		} else {
			body = fmt.Sprintf("%d slices, %d syscalls, %d signals, %d sync ops",
				len(ep.Schedule), len(ep.Syscalls), len(ep.Signals), len(ep.SyncOrder))
		}
		fmt.Printf("  %5d %9d %8d %8d %6.2f  %-5s %s\n",
			s.Epoch, s.Offset, s.Stored, s.Raw, float64(s.Stored)/float64(max(s.Raw, 1)), flags, body)
		totStored += int64(s.Stored)
		totRaw += int64(s.Raw)
	}
	fmt.Printf("  %5s %9s %8d %8d %6.2f\n",
		"total", "", totStored, totRaw, float64(totStored)/float64(max(totRaw, 1)))
}

// logInspectEpoch prints one section's frame entry and the decoded
// epoch's boundary info — the `-epoch N` view, for asking "what does the
// log say about this one epoch" without the full totals table.
func logInspectEpoch(rd *dplog.Reader, epoch int) {
	secs := rd.Sections()
	var sec *dplog.SectionInfo
	var pos int
	for i := range secs {
		if secs[i].Epoch == epoch {
			sec, pos = &secs[i], i
			break
		}
	}
	if sec == nil {
		fatal(fmt.Sprintf("no section for epoch %d (log holds %d sections)", epoch, rd.NumSections()))
	}
	flags := ""
	if sec.Compressed() {
		flags += "C"
	}
	if sec.Certified() {
		flags += "V"
	}
	if flags == "" {
		flags = "-"
	}
	fmt.Printf("\nepoch %d: offset %d, stored %d, raw %d (ratio %.2f), flags %s, crc %08x\n",
		sec.Epoch, sec.Offset, sec.Stored, sec.Raw,
		float64(sec.Stored)/float64(max(sec.Raw, 1)), flags, sec.CRC)
	ep, err := rd.EpochAt(pos)
	if err != nil {
		fatal(fmt.Sprintf("epoch %d body: %v", epoch, err))
	}
	var retired uint64
	for _, w := range ep.Targets {
		retired += w
	}
	fmt.Printf("  boundary: start %016x -> end %016x\n", ep.StartHash, ep.EndHash)
	fmt.Printf("  targets:  %d threads, %d retired instructions at exit\n", len(ep.Targets), retired)
	if ep.Certified {
		fmt.Printf("  schedule: none (certified epoch free-runs under the sync-order gate)\n")
	} else {
		fmt.Printf("  schedule: %d timeslices\n", len(ep.Schedule))
	}
	fmt.Printf("  injects:  %d syscalls, %d signals, %d sync ops\n",
		len(ep.Syscalls), len(ep.Signals), len(ep.SyncOrder))
}

// logUpgrade repairs a damaged log: it rewrites the sections that survive
// behind a fresh index. With -o it writes there; otherwise it
// replaces the input atomically via a temp file in the same directory.
func logUpgrade(path, out string) {
	data, err := os.ReadFile(path)
	check(err)
	up, changed, err := dplog.Upgrade(data)
	if err != nil {
		fatal(fmt.Sprintf("%s: %v", path, err))
	}
	if !changed && (out == "" || out == path) {
		fmt.Printf("%s: already dplog v%d with an intact index; nothing to do\n", path, dplog.FormatVersion)
		return
	}
	if out == "" || out == path {
		// In-place: write a sibling temp file, then rename over the original.
		tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".up*")
		check(err)
		if _, err := tmp.Write(up); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			fatal(err.Error())
		}
		check(tmp.Close())
		check(os.Rename(tmp.Name(), path))
		out = path
	} else {
		check(os.WriteFile(out, up, 0o644))
	}
	rd, err := dplog.OpenReaderBytes(up)
	check(err)
	fmt.Printf("upgraded %s -> %s: dplog v%d, %d sections, %d -> %d bytes\n",
		path, out, rd.Header().Version, rd.NumSections(), len(data), len(up))
}

// logExtract writes epochs lo..hi of a log as a standalone dplog.
func logExtract(path, out, epochs string) {
	if epochs == "" {
		usageErr("log extract requires -epochs n or -epochs n..m")
	}
	if out == "" {
		usageErr("log extract requires -o <file>")
	}
	lo, hi, err := dplog.ParseEpochRange(epochs)
	if err != nil {
		usageErr(err.Error())
	}
	rd := openLog(path)
	f, err := os.Create(out)
	check(err)
	if err := rd.WriteRange(f, lo, hi); err != nil {
		f.Close()
		os.Remove(out)
		fatal(fmt.Sprintf("%s: %v", path, err))
	}
	check(f.Close())
	fmt.Printf("wrote %s: epochs %d..%d of %s (%d sections)\n", out, lo, hi, path, hi-lo+1)
}
