// Command schedchaos replays the deterministic chaos scenarios of
// internal/chaos and machine-checks their invariants: documented-or-
// byte-identical responses, metrics conservation, queue/in-flight
// quiescence, goroutine-leak freedom, legal breaker transitions, panic
// accounting and full fault-free recovery. One registry holds every
// scenario, whatever its topology — a single instance, a gateway over
// in-process backends (kills, rejoins, fault storms; byte-identity with a
// single instance and rendezvous routing), a kill/restart over the disk
// tier, or a sick-disk arc over a fault-injecting filesystem; -list names
// each one's topology.
//
// Every scenario is seeded and replayed serially, so the verdict report is
// byte-identical across runs of the same scenario and seed. The exit code
// is the contract for CI: 0 only if every invariant of every selected
// scenario holds.
//
// Usage:
//
//	schedchaos [-scenario all|name] [-seed N] [-list] [-json] [-report file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario   = fs.String("scenario", "all", "scenario to replay: all or a name from -list")
		seed       = fs.Uint64("seed", 0, "override the scenario seed (0 keeps the pinned seed)")
		list       = fs.Bool("list", false, "list builtin scenarios and exit")
		jsonOut    = fs.Bool("json", false, "print the full JSON verdict report(s) to stdout")
		reportPath = fs.String("report", "", "write the JSON verdict report(s) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *list {
		for _, sc := range chaos.Builtin() {
			fmt.Fprintf(stdout, "%-20s seed %-3d [%s] %s\n", sc.Name, sc.Seed, sc.Topology(), sc.Description)
		}
		return nil
	}

	selected := chaos.Builtin()
	if *scenario != "all" {
		sc, err := chaos.ByName(*scenario)
		if err != nil {
			return err
		}
		selected = []chaos.Scenario{sc}
	}

	var reports []*chaos.Report
	failed := 0
	for _, sc := range selected {
		if *seed != 0 {
			sc.Seed = *seed
		}
		rep, err := chaos.Run(sc)
		if err != nil {
			return err
		}
		requests := 0
		for _, ph := range rep.Phases {
			requests += ph.Requests
		}
		fmt.Fprintf(stdout, "schedchaos: scenario %s (seed %d): %d phases, %d requests — %s\n",
			rep.Scenario, rep.Seed, len(rep.Phases), requests, rep.Description)
		for _, inv := range rep.Invariants {
			tag := "[ok  ]"
			if !inv.OK {
				tag = "[FAIL]"
			}
			fmt.Fprintf(stdout, "%s %s: %s\n", tag, inv.Name, inv.Detail)
		}
		if rep.Err() != nil {
			failed++
		}
		reports = append(reports, rep)
	}

	if *jsonOut || *reportPath != "" {
		body, err := marshalReports(reports)
		if err != nil {
			return err
		}
		if *jsonOut {
			if _, err := stdout.Write(body); err != nil {
				return err
			}
		}
		if *reportPath != "" {
			if err := os.WriteFile(*reportPath, body, 0o644); err != nil {
				return err
			}
		}
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d scenario(s) violated invariants", failed, len(selected))
	}
	fmt.Fprintf(stdout, "schedchaos: %d scenario(s), every invariant ok\n", len(selected))
	return nil
}

// marshalReports renders one report as a single object and several as an
// array — indented, deterministic, trailing newline.
func marshalReports(reports []*chaos.Report) ([]byte, error) {
	if len(reports) == 1 {
		return reports[0].JSON()
	}
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
