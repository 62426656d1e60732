// Command tool is the fixture's cmd/ caller.
package main

import (
	"context"
	"fmt"

	"fixmod/internal/badscope"
	"fixmod/internal/lib"
)

func main() {
	fmt.Println(lib.UsedByCmd(), badscope.Used(), lib.Pick().Describe(), lib.Scoped(context.Background()) != nil)
}
