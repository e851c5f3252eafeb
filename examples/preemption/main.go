// Preemptible execution: a long deadline-free job monopolizes the
// cloud, a deadline job arrives behind it, and the deadline-rescue
// policy preempts the incumbent at an EPR-round boundary, runs the
// urgent job, then resumes the victim from its checkpoint — same job
// id, same tenant billing, wait time still counting admission wait
// only. The run is repeated with preemption off to show what rescue
// buys: without it the urgent job queues behind the incumbent and
// blows its deadline.
//
// Run with: go run ./examples/preemption
package main

import (
	"fmt"
	"log"

	"cloudqc"
)

func main() {
	// 8 QPUs x 20 computing qubits: the 127-qubit jobs below need most
	// of the cloud, so two of them cannot run side by side.
	incumbent, err := cloudqc.BuildCircuit("ghz_n127")
	if err != nil {
		log.Fatal(err)
	}
	urgent, err := cloudqc.BuildCircuit("ghz_n127")
	if err != nil {
		log.Fatal(err)
	}

	run := func(policy cloudqc.PreemptPolicy) {
		lc, err := cloudqc.NewCluster(cloudqc.ClusterConfig{
			Cloud:   cloudqc.NewRandomCloud(8, 0.3, 20, 5, 1),
			Mode:    cloudqc.EDFMode,
			Seed:    7,
			Preempt: policy,
		})
		if err != nil {
			log.Fatal(err)
		}

		// t=0: tenant 0 submits the deadline-free incumbent; it places
		// immediately and holds its reservation.
		if err := lc.Submit(&cloudqc.Job{ID: 0, Circuit: incumbent, Tenant: 0}); err != nil {
			log.Fatal(err)
		}
		if err := lc.StepUntil(10); err != nil {
			log.Fatal(err)
		}
		// t=10: tenant 1's job arrives with a deadline. Under rescue the
		// controller checkpoints the incumbent at the next EPR-round
		// boundary, releases its QPUs, places the urgent job, and
		// re-enqueues the incumbent to resume afterwards.
		deadline := 400.0
		if err := lc.Submit(&cloudqc.Job{
			ID: 1, Circuit: urgent, Tenant: 1, Arrival: 10, Deadline: deadline,
		}); err != nil {
			log.Fatal(err)
		}

		results, err := lc.Drain()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("preempt=%s:\n", policy)
		for _, r := range results {
			met := "-"
			if r.Job.Deadline > 0 {
				if r.Finished <= r.Job.Deadline {
					met = "met"
				} else {
					met = "MISSED"
				}
			}
			fmt.Printf("  job %d (tenant %d): finished %7.1f  wait %5.1f  deadline %s\n",
				r.Job.ID, r.Job.Tenant, r.Finished, r.WaitTime, met)
		}
		ps := lc.PreemptStats()
		fmt.Printf("  preemptions %d, resumes %d, rescued deadlines %d\n\n",
			ps.Preemptions, ps.Resumes, ps.RescuedDeadlines)
	}

	run(cloudqc.PreemptOff)
	run(cloudqc.PreemptRescue)
}
