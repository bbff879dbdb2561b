package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"trustedcvs/internal/digest"
	"trustedcvs/internal/durable"
)

// The cursor file records the journal owner's durable resume point —
// for the audit pipeline, the newest closed epoch plus the user state
// at its boundary cut. It is replaced atomically
// (durable.WriteFile) so a crash mid-update leaves either the old
// cursor or the new one, never a torn hybrid, and it travels in the
// checksummed durable envelope so rot is detected on read.

// cursorMagic heads the cursor file.
const cursorMagic = "TCVSCUR1\n"

// cursorFile is the cursor's name inside the journal directory.
const cursorFile = "cursor"

// WriteCursor durably replaces the journal's cursor with payload.
// Safe to call while the WAL is open; the cursor is a separate file
// and never collides with a segment name.
func WriteCursor(fs durable.FS, dir string, payload []byte) error {
	if err := durable.WriteFile(fs, filepath.Join(dir, cursorFile), false, cursorMagic, digest.DomainWALCursor, payload); err != nil {
		return fmt.Errorf("wal: write cursor: %w", err)
	}
	return nil
}

// ReadCursor loads the journal's cursor payload. ok is false when no
// cursor has ever been written; a cursor that exists but fails its
// checksum is corruption, not absence.
func ReadCursor(dir string) (payload []byte, ok bool, err error) {
	payload, err = durable.ReadFile(filepath.Join(dir, cursorFile), cursorMagic, digest.DomainWALCursor)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: cursor: %w", err)
	}
	return payload, true, nil
}
