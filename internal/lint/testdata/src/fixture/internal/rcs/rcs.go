// Package rcs gives verifyflow its fixture content check: CheckContent
// is the sanitizer for blob bytes.
package rcs

import "errors"

// CheckContent verifies content against the authenticated hash.
func CheckContent(content, want []byte) error {
	if len(content) != len(want) {
		return errors.New("rcs: content does not match")
	}
	return nil
}
