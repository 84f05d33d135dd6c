// Command bench stands for the bench module, a separate module that
// imports the library.
package main

import "fixture/internal/lib"

func main() { lib.UsedByBench() }
