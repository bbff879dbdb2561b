package wire

// FrameBufferCap reports the capacity of the buffer d reads its next
// frame into (0 after Keep).
func FrameBufferCap(d *Decoder) int { return cap(d.buf) }

// ReadStep is readStep, for tests of what the Decoder retains.
const ReadStep = readStep
