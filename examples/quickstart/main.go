// Quickstart: predict the waste of the three fault-tolerance protocols with
// the analytical model, then validate the prediction with the discrete-event
// simulator — the paper's core workflow in ~40 lines.
package main

import (
	"fmt"

	"abftckpt"
)

func main() {
	// The paper's Figure 7 scenario: a one-week epoch, 10-minute
	// checkpoints, 2-hour platform MTBF, 80% of the time spent in an
	// ABFT-protectable library call.
	params := abftckpt.Fig7Params(2*abftckpt.Hour, 0.8)
	fmt.Println("scenario:", params)

	period, feasible := abftckpt.OptimalPeriod(params.C, params.Mu, params.D, params.R)
	fmt.Printf("optimal checkpoint period (Eq. 11): %.0f s (feasible: %v)\n\n", period, feasible)

	fmt.Printf("%-22s %-12s %-14s\n", "protocol", "model waste", "simulated waste")
	for _, proto := range abftckpt.Protocols {
		predicted := abftckpt.Predict(proto, params)
		simulated := abftckpt.Simulate(abftckpt.SimConfig{
			Params:   params,
			Protocol: proto,
			Reps:     200,
			Seed:     42,
		}, abftckpt.SimOptions{})
		fmt.Printf("%-22s %-12.4f %.4f ±%.4f\n",
			proto, predicted.Waste, simulated.Waste.Mean, simulated.Waste.CI95)
	}
	fmt.Println("\nThe composite protocol (ABFT&PeriodicCkpt) wins: it disables periodic")
	fmt.Println("checkpoints during the 80% of time spent in the library, and failures")
	fmt.Println("there cost only a cheap checksum reconstruction instead of a rollback.")
}
