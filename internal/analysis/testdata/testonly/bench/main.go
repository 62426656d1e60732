// Command bench is the fixture's nested-module caller, loaded like
// perfbench: for its references only.
package main

import (
	"fmt"

	"fixmod/internal/lib"
)

func main() { fmt.Println(lib.UsedByBench()) }
