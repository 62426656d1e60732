// Timeline: trace a pipelined GPU workload — H2D upload, compute kernel,
// halo exchange, D2H readback on every Aurora stack — and export a
// Chrome-trace JSON (load it at ui.perfetto.dev) plus a per-stack
// utilization summary. Demonstrates the obs recorder every device
// operation reports to.
package main

import (
	"fmt"
	"log"
	"os"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/hw"
	"pvcsim/internal/mpirt"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func main() {
	log.SetFlags(0)

	node := topology.NewAurora()
	machine, err := gpusim.New(node)
	if err != nil {
		log.Fatal(err)
	}
	col := obs.NewCollector()
	key := obs.Key{Workload: "timeline", System: node.System.String()}
	trace := col.Cell(key)
	machine.Observe(trace)

	comm, err := mpirt.NewComm(machine, node.TotalStacks())
	if err != nil {
		log.Fatal(err)
	}

	const steps = 3
	compute := perfmodel.Profile{
		Name:      "stencil",
		MemBytes:  4 * units.GB, // bandwidth-bound sweep over a 4 GB state
		Precision: hw.FP64,
		Kind:      perfmodel.KindStream,
	}
	err = comm.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		// Initial upload.
		r.Stack.MemcpyH2D(p, 2*units.GB)
		for step := 0; step < steps; step++ {
			r.Stack.LaunchKernel(p, compute)
			// Ring halo exchange. Isend and Irecv return Request
			// values: the send points at its message, and the receive
			// records the message it matches in the variable it is
			// waited through.
			right := (r.Rank() + 1) % r.Size()
			left := (r.Rank() - 1 + r.Size()) % r.Size()
			sreq, err := r.Isend(right, step, 64*units.MB)
			if err != nil {
				panic(err)
			}
			rreq, err := r.Irecv(left, step)
			if err != nil {
				panic(err)
			}
			sreq.Wait(p)
			rreq.Wait(p)
		}
		// Result readback.
		r.Stack.MemcpyD2H(p, 512*units.MB)
	})
	if err != nil {
		log.Fatal(err)
	}
	col.Finish(key, 0, nil)

	// Busy time per stack: the summed extent of its device spans
	// (fabric flows, on GPU -1, belong to no stack).
	busy := map[topology.StackID]units.Seconds{}
	events := 0
	for _, s := range trace.Spans() {
		if s.GPU >= 0 {
			busy[topology.StackID{GPU: s.GPU, Stack: s.Stack}] += s.Duration()
			events++
		}
	}
	total := machine.Eng.Now()
	fmt.Printf("simulated %d ranks x %d steps in %v of virtual time\n", node.TotalStacks(), steps, total)
	fmt.Printf("%d device events recorded\n\n", events)
	for _, id := range node.Subdevices() {
		if b, ok := busy[id]; ok {
			fmt.Printf("%v: busy %v (%.0f%%)\n", id, b, float64(b)/float64(total)*100)
		}
	}

	f, err := os.Create("timeline.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := col.Report().WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote timeline.json (open with ui.perfetto.dev)")
}
