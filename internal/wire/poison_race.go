//go:build race

package wire

// poisonByte overwrites a frame buffer before the Decoder reads the
// next frame into it.
const poisonByte = 0xdb

// poison overwrites the previous frame, when the Decoder still holds
// it, before the next frame is read over it. A window that outlived
// its Decode without Keep then reads bytes no encoder wrote, so the
// race-enabled test suite fails verification where a plain build would
// corrupt silently or, worse, read the next frame's bytes by luck.
func poison(buf []byte) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = poisonByte
	}
}
