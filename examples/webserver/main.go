// Webserver: run the Nginx-like server model over every accelerator
// placement and compare requests per second, CPU utilization, and
// memory bandwidth — the Fig. 11 experiment as a runnable program.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/offload"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	const (
		msgSize     = 4096
		connections = 256
		workers     = 4
		llcBytes    = 512 << 10
	)
	fmt.Printf("HTTPS serving, %dB responses, %d connections, %d workers, %dKB LLC\n\n",
		msgSize, connections, workers, llcBytes>>10)
	fmt.Printf("%-12s %-10s %-10s %-12s %s\n", "placement", "RPS", "CPU util", "mem GB/s", "mean latency")

	type setup struct {
		name string
		dimm bool
		mk   func(*sim.System) offload.Backend
	}
	for _, s := range []setup{
		{"CPU", false, func(sys *sim.System) offload.Backend { return &offload.CPU{Sys: sys, Functional: true} }},
		{"SmartNIC", false, func(sys *sim.System) offload.Backend { return &offload.SmartNIC{Sys: sys} }},
		{"QuickAssist", false, func(sys *sim.System) offload.Backend { return &offload.QAT{Sys: sys, Functional: true} }},
		{"SmartDIMM", true, func(sys *sim.System) offload.Backend { return &offload.SmartDIMM{Sys: sys} }},
	} {
		sys, err := sim.NewSystem(sim.SystemConfig{
			Params: sim.DefaultParams(), LLCBytes: llcBytes, LLCWays: 8,
			Geometry:      dram.MediumGeometry(),
			WithSmartDIMM: s.dimm,
		})
		if err != nil {
			log.Fatal(err)
		}
		m, err := server.RunClosedLoop(server.Config{
			Sys: sys, Backend: s.mk(sys), Mode: server.HTTPSMode,
			Workers: workers, MsgSize: msgSize, Connections: connections,
			FileKind: corpus.Text, Seed: 1,
		}, 2*sim.Ms, 10*sim.Ms)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-10.0f %-10.1f%% %-12.3f %.0f us\n",
			s.name, m.RPS, m.CPUUtil*100, m.MemBWGBps, float64(m.MeanLatPs)/float64(sim.Us))
	}
	fmt.Println("\nUnder LLC contention SmartDIMM serves more requests with less CPU and")
	fmt.Println("memory bandwidth: encryption happens in the DIMM buffer device while the")
	fmt.Println("unmodified TCP/IP stack runs on the CPU (paper Fig. 11).")
}
