package corpus

// FillerBackingCorruptAt returns the first offset at which the shared
// payload buffer no longer holds the period, or -1 when it is intact,
// with the buffer's length.
func FillerBackingCorruptAt() (at, size int) {
	fillerBacking.mu.Lock()
	defer fillerBacking.mu.Unlock()
	for i, c := range fillerBacking.buf {
		if c != fillerPeriod[i%len(fillerPeriod)] {
			return i, len(fillerBacking.buf)
		}
	}
	return -1, len(fillerBacking.buf)
}
