package dplog

// UpdateGolden exposes the -update flag to the external test package
// (golden_test.go), which records real workloads and so cannot live in
// package dplog itself: internal/core imports it.
var UpdateGolden = update

// FlateInflate exposes the compress/flate reference to BenchmarkInflate.
var FlateInflate = flateInflate

// NormalizeEpoch exposes normalizeEpoch to TestDecodeAtReuse.
var NormalizeEpoch = normalizeEpoch
