package dplog

import "testing"

// UpdateGolden exposes the -update flag to the external test package
// (golden_test.go), which records real workloads and so cannot live in
// package dplog itself: internal/core imports it.
var UpdateGolden = update

// FlateInflate exposes the compress/flate reference to BenchmarkInflate.
var FlateInflate = flateInflate

// NormalizeEpoch exposes normalizeEpoch to TestDecodeAtReuse.
var NormalizeEpoch = normalizeEpoch

// CutBody re-lays an intact log whose sections are stored raw with
// section pos's payload one byte short, under a frame whose lengths and
// CRC say so: the file opens intact, and that section fails in its body
// decode. TestDecodeAtReuse verifies it right after a large log.
func CutBody(t *testing.T, data []byte, pos int) []byte {
	h, frames, infos := framesOf(t, data)
	info := infos[pos]
	body := frames[pos][int64(len(frames[pos]))-info.Stored : len(frames[pos])-1]
	frames[pos], infos[pos] = rawFrame(uint64(info.Epoch), info.Flags, uint64(len(body)), body)
	return layout(h, frames, infos, nil, nil)
}
