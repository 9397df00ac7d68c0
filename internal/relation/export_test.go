package relation

// SetHashBits keeps only the low bits of every partition hash, so that
// nearly every probe collides, and returns the function that undoes
// it. An instance built under it must not be probed after the undo.
func SetHashBits(bits uint) (restore func()) {
	old := hashMask
	hashMask = 1<<bits - 1
	return func() { hashMask = old }
}

// Key returns a canonical string encoding of the tuple: equal tuples,
// and only they, have equal keys. The tests hold the partitions to maps
// keyed by it.
func (t Tuple) Key() string {
	var b []byte
	for _, v := range t {
		b = v.appendKey(b)
	}
	return string(b)
}
