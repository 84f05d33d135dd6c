// Package lib is the dead-export check's fixture: each export's comment
// says whether TestNoDeadExports must flag it.
package lib

import (
	"errors"
	"io"
	"net/rpc"
)

// OnlyTest is called by lib_test.go alone: flagged.
func OnlyTest() {}

// Recursive is called by nothing but itself: flagged.
func Recursive(n int) int {
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// UsedByCmd is called by cmd/tool alone: passes.
func UsedByCmd() {}

// UsedByBench is called by the bench module alone: passes.
func UsedByBench() {}

// Allowed is called by nothing, but says why it stays: passes.
//
//trimlint:allow deadexport fixture: an allowed export passes
func Allowed() {}

// Table has one method only a test calls and one an interface reaches.
type Table struct{}

// OnlyTest is called by lib_test.go alone: flagged.
func (Table) OnlyTest() {}

// Rows satisfies Sized, through which Count calls it: passes.
func (Table) Rows() int { return 0 }

// Sized is an interface the fixture's own code calls through.
type Sized interface{ Rows() int }

// Count is called by cmd/tool: passes.
func Count(s Sized) int { return s.Rows() }

// Name is printable: String satisfies fmt.Stringer, an interface of the
// standard library, so it passes though nothing calls it.
type Name string

// String returns n.
func (n Name) String() string { return string(n) }

// codec is a net/rpc server codec: net/rpc calls its methods through
// rpc.ServerCodec, so they pass though no fixture code calls them.
type codec struct{ rwc io.ReadWriteCloser }

func (c *codec) ReadRequestHeader(*rpc.Request) error   { return errors.New("fixture") }
func (c *codec) ReadRequestBody(any) error              { return nil }
func (c *codec) WriteResponse(*rpc.Response, any) error { return nil }
func (c *codec) Close() error                           { return c.rwc.Close() }

// Serve is called by cmd/tool: passes.
func Serve(rwc io.ReadWriteCloser) { rpc.ServeCodec(&codec{rwc}) }
