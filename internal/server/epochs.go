package server

// The epoch-range endpoint: a remote replayer that wants epochs n..m of a
// stored recording should not have to download — or decode — the whole
// log. Because dplog v6 is sectioned behind an offset index, the server
// extracts exactly the requested sections, verbatim, into a small
// standalone dplog and ships that. (The store only ever holds logs this
// daemon marshalled itself, so they are always the current format.)

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"doubleplay/internal/dplog"
)

func (s *Server) handleEpochRange(w http.ResponseWriter, r *http.Request, j *Job) {
	lo, hi, err := dplog.ParseEpochRange(r.PathValue("range"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad epoch range %q: %v", r.PathValue("range"), err)
		return
	}
	// Open through the store's lazy handle: only the blocks holding the
	// requested sections are read and inflated, never the whole artifact.
	h, err := s.store.OpenRecordingByJob(j.ID)
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s has no stored recording (state %s)", j.ID, s.jobState(j))
		return
	}
	defer h.Close()
	rd, err := dplog.OpenReader(h, h.Size())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "job %s: stored recording is unreadable: %v", j.ID, err)
		return
	}
	var buf bytes.Buffer
	if err := rd.WriteRange(&buf, lo, hi); err != nil {
		if errors.Is(err, dplog.ErrNoEpoch) {
			writeErr(w, http.StatusRequestedRangeNotSatisfiable,
				"job %s: %v (recording has %d epochs)", j.ID, err, rd.NumSections())
			return
		}
		writeErr(w, http.StatusInternalServerError, "job %s: extracting epochs %d..%d: %v", j.ID, lo, hi, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Recording-Digest", s.store.RecordingRef(j.ID))
	w.Header().Set("X-Epoch-Range", fmt.Sprintf("%d..%d", lo, hi))
	w.Header().Set("X-Epoch-Count", fmt.Sprintf("%d", hi-lo+1))
	_, _ = w.Write(buf.Bytes())
}
