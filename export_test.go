package prefcqa

// The engine knobs, for the differential tests of package prefcqa_test
// (parallel_test.go): every configuration must return what the
// sequential, uncached one returns.
var (
	WithParallelism = withParallelism
	WithCache       = withCache
)
