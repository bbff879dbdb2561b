// riders.go exercises verifyflow's second-result sources: a result that is
// untrusted by its interface's contract stays untrusted through a
// gated implementation, is a finding when a delivery returns it
// unchecked, and is silent once it has met rcs.CheckContent.
package cvs

import (
	"fixture.example/internal/audit"
	"fixture.example/internal/rcs"
)

// ContentDoer hands back an answer and, beside it, content riders that
// are untrusted by the interface's contract — whatever the
// implementation does on the way (a source naming one result).
type ContentDoer interface {
	DoWithContent(op any) (ans any, riders [][]byte, err error)
}

// gatedDoer passes the admission gate before it returns, so its own
// summary vouches for everything it hands back. The contract must win.
type gatedDoer struct {
	aud    *audit.Auditor
	riders [][]byte
}

func (d *gatedDoer) DoWithContent(op any) (any, [][]byte, error) {
	d.aud.WaitAdmissible()
	return op, d.riders, nil
}

// Client delivers checked-out content.
type Client struct {
	carrier ContentDoer
}

// checkout is a delivery: riders it returns unchecked are a finding,
// riders run through rcs.CheckContent are not.
func (c *Client) checkout(op any, hash []byte, check bool) ([]byte, error) {
	_, riders, err := c.carrier.DoWithContent(op)
	if err != nil || len(riders) == 0 {
		return nil, err
	}
	if !check {
		return riders[0], nil
	}
	content := riders[0]
	if err := rcs.CheckContent(content, hash); err != nil {
		return nil, err
	}
	return content, nil
}

// Checkout is the exported face of the delivery.
func Checkout(aud *audit.Auditor, op any, hash []byte) ([]byte, error) {
	c := &Client{carrier: &gatedDoer{aud: aud}}
	return c.checkout(op, hash, true)
}
