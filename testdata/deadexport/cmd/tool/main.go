// Command tool calls the exports that only a command uses.
package main

import (
	"os"

	"fixture/internal/lib"
)

func main() {
	lib.UsedByCmd()
	_ = lib.Count(lib.Table{})
	lib.Serve(os.Stdin)
}
