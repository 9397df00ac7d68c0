package prefcqa

// The engine knobs, for the differential tests of package prefcqa_test
// (parallel_test.go): every configuration must return what the
// sequential, uncached one returns.
var (
	WithParallelism = withParallelism
	WithCache       = withCache
)

// HoldWriter takes the database's writer mutex, as a mutation holds it
// from validation to publication, and returns its release: the reads
// of readers_test.go must not wait for it.
func HoldWriter(db *DB) (release func()) {
	db.mu.Lock()
	return db.mu.Unlock
}
