package store_test

// The crash matrix: every operation that changes the store, killed at each
// of its calls to the file system in turn, must leave a store that re-opens
// and passes fsck. Orphans and stale temp files are allowed — the next GC
// reclaims them — a dangling ref never is.

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"doubleplay/internal/store"
	"doubleplay/internal/trace"
)

// errKilled is what every call to the file system returns once the
// simulated process has died.
var errKilled = errors.New("killed")

// faultFS is the real file system up to its k-th call, which it fails —
// or, when that call is a write and short is set, lets land half its bytes
// — and then fails every call after it: the process died there, so
// nothing more it does reaches the disk.
type faultFS struct {
	store.FS
	k, calls    int
	short       bool
	killedWrite bool // the k-th call was a write
}

// dead counts one call and reports whether the process has died by it.
func (f *faultFS) dead() bool {
	f.calls++
	return f.calls >= f.k
}

func (f *faultFS) CreateTemp(dir, pattern string) (store.File, error) {
	if f.dead() {
		return nil, errKilled
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.dead() {
		return errKilled
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if f.dead() {
		return errKilled
	}
	return f.FS.Remove(name)
}

func (f *faultFS) Chtimes(name string, atime, mtime time.Time) error {
	if f.dead() {
		return errKilled
	}
	return f.FS.Chtimes(name, atime, mtime)
}

// faultFile is a file written through a faultFS.
type faultFile struct {
	store.File
	fs *faultFS
}

func (w faultFile) Write(p []byte) (int, error) {
	if !w.fs.dead() {
		return w.File.Write(p)
	}
	if w.fs.calls == w.fs.k {
		w.fs.killedWrite = true
		if w.fs.short {
			n, _ := w.File.Write(p[:len(p)/2])
			return n, errKilled
		}
	}
	return 0, errKilled
}

func (w faultFile) Close() error {
	err := w.File.Close() // the kernel closes a dead process's files all the same
	if w.fs.dead() {
		return errKilled
	}
	return err
}

// killAtEveryCall runs run over a store opened in a fresh directory, once
// per call the run makes to the file system, killing it at that call (and,
// for a write, once more with the write cut short), and hands each
// directory it leaves to check. It returns how many calls an unkilled run
// makes.
func killAtEveryCall(t *testing.T, run func(*store.Store) error, check func(dir, what string)) int {
	t.Helper()
	for k := 1; ; k++ {
		for _, short := range []bool{false, true} {
			dir := t.TempDir()
			ffs := &faultFS{FS: store.OSFS, k: k, short: short}
			s, err := store.OpenFS(dir, nil, ffs)
			if err == nil {
				err = run(s)
			}
			if ffs.calls < k {
				if err != nil {
					t.Fatalf("the run failed with nothing killed: %v", err)
				}
				return k - 1
			}
			check(dir, fmt.Sprintf("killed at file-system call %d (short write %v)", k, short))
			if !ffs.killedWrite {
				break
			}
		}
	}
}

// checkReopens is the invariant every crash must leave: the store re-opens,
// fsck finds no damage and no dangling ref, and the totals behind the
// gauges equal the walk; then a GC reclaims every orphan and temp file.
func checkReopens(t *testing.T, dir, what string) {
	t.Helper()
	reg := trace.NewRegistry()
	s, err := store.Open(dir, reg)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	if rep, err := s.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("%s: fsck: %+v, %v", what, rep, err)
	}
	gaugesEqualStats(t, s, reg, what)
	if _, err := s.GC(store.Policy{}); err != nil {
		t.Fatalf("%s: gc: %v", what, err)
	}
	if rep, err := s.Fsck(); err != nil || !rep.OK() || rep.OrphanRecordings != 0 || rep.StaleTemps != 0 {
		t.Fatalf("%s: fsck after gc: %+v, %v", what, rep, err)
	}
	gaugesEqualStats(t, s, reg, what+", after gc")
}

// TestCrashAtEveryStep kills a run of every mutating operation — puts,
// refs, a job's put and ref in one call, a pin and an unpin, an age GC and
// a size GC, and a repeat of a pin, a ref and a job's put that finds its
// bytes already on disk — at each of its calls to the file system.
func TestCrashAtEveryStep(t *testing.T) {
	a, b, c := encode(testRecording(1, 3)), encode(testRecording(2, 60)), encode(testRecording(3, 2))
	d := encode(testRecording(4, 5))
	putRef := func(s *store.Store, job string, data []byte) error {
		d, err := s.PutRecording(data)
		if err == nil {
			err = s.SetRecordingRef(job, d)
		}
		return err
	}
	run := func(s *store.Store) error {
		steps := []func() error{
			func() error { return putRef(s, "jobA", a) },
			func() error { return s.Pin("jobA") },
			func() error { return putRef(s, "jobB", b) },
			func() error { _, err := s.PutRecording(c); return err }, // an orphan
			func() error {
				old := time.Now().Add(-48 * time.Hour)
				_ = os.Chtimes(s.JobArtifact("jobB", "recording.ref"), old, old) // gone if an earlier step died
				_, err := s.GC(store.Policy{MaxAge: time.Hour})
				return err
			},
			func() error { _, err := s.PutJobRecording("jobD", d); return err },
			func() error { _, err := s.PutJobRecording("jobD", d); return err },
			func() error { return s.Pin("jobA") },
			func() error { return putRef(s, "jobA", a) },
			func() error { return s.Unpin("jobA") },
			func() error { return putRef(s, "jobC", c) },
			func() error { _, err := s.GC(store.Policy{MaxBytes: int64(len(c))}); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}
	calls := killAtEveryCall(t, run, func(dir, what string) { checkReopens(t, dir, what) })
	if calls < 30 {
		t.Fatalf("the run made %d calls to the file system; the matrix covers too little", calls)
	}
	t.Logf("killed at each of %d file-system calls", calls)
}
