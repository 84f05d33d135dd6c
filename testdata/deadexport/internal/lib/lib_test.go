package lib

import "testing"

// A test's calls do not keep an export alive.
func TestOnlyTest(t *testing.T) {
	OnlyTest()
	Table{}.OnlyTest()
}
