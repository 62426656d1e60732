// Command tool is the fixture's cmd/ caller.
package main

import (
	"fmt"

	"fixmod/internal/badscope"
	"fixmod/internal/lib"
)

func main() {
	fmt.Println(lib.UsedByCmd(), badscope.Used(), lib.Pick().Describe())
}
