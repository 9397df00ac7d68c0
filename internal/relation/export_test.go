package relation

// SetHashBits keeps only the low bits of every partition hash, so that
// nearly every probe collides, and returns the function that undoes
// it. An instance built under it must not be probed after the undo.
func SetHashBits(bits uint) (restore func()) {
	old := hashMask
	hashMask = 1<<bits - 1
	return func() { hashMask = old }
}
