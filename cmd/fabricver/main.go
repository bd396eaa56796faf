// Command fabricver statically verifies whole fabrics: for a topology ×
// routing pair it proves CDG acyclicity from the concrete routing tables,
// routing-table consistency (every entry live, within the analytical hop
// bound), full endpoint reachability (the paper's CPU→disk database
// pattern), exact path-disable enforcement, and single-fault
// survivability (every link and every router failed in turn, the degraded
// fabric re-routed and re-proved). It emits a machine-readable JSON
// certificate per spec.
//
// Usage:
//
//	fabricver -spec fat-fract:levels=2
//	fabricver -spec ring:size=4,unsafe         # exits 3, prints the minimal cycle
//	fabricver -all                             # certify every built-in pair
//	fabricver -all -json -certdir certs        # write certs/<spec>.json each
//
// Exit status: 0 when every check passes, 1 on a build/usage error, 3 when
// any verification check is violated. `fabricver -all -no-faults` is the
// static certificate matrix `make certify` and CI run on every commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fabricver"
)

func main() {
	os.Exit(run())
}

func run() int {
	spec := flag.String("spec", "", "verify one topology specification (see fractagen)")
	all := flag.Bool("all", false, "verify every built-in topology × routing pair")
	jsonOut := flag.Bool("json", false, "print certificates as JSON instead of the human rendering")
	certDir := flag.String("certdir", "", "also write one <spec>.json certificate per spec into this directory")
	noFaults := flag.Bool("no-faults", false, "skip the single-fault enumeration")
	workers := flag.Int("workers", 0, "fault-enumeration worker pool size (0 = GOMAXPROCS; result is identical)")
	flag.Parse()

	if *all == (*spec != "") {
		fmt.Fprintln(os.Stderr, "fabricver: exactly one of -spec or -all is required")
		flag.Usage()
		return 1
	}
	opt := fabricver.Options{Workers: *workers, SkipFaults: *noFaults}

	specs := []string{*spec}
	if *all {
		specs = core.BuiltinSpecs()
	}

	if *certDir != "" {
		if err := os.MkdirAll(*certDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
			return 1
		}
	}

	violated := false
	certs := make([]fabricver.Certificate, 0, len(specs))
	for _, s := range specs {
		cert, err := fabricver.VerifySpec(s, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %s: %v\n", s, err)
			return 1
		}
		certs = append(certs, cert)
		if !cert.OK {
			violated = true
		}
		if *certDir != "" {
			b, err := fabricver.MarshalCertificate(cert)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
			path := filepath.Join(*certDir, fabricver.CertFileName(s))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
		}
	}

	switch {
	case *jsonOut && *all:
		// One JSON array for the whole matrix.
		fmt.Print("[\n")
		for i, cert := range certs {
			b, err := fabricver.MarshalCertificate(cert)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
			sep := ","
			if i == len(certs)-1 {
				sep = ""
			}
			fmt.Printf("%s%s", string(b[:len(b)-1]), sep+"\n")
		}
		fmt.Print("]\n")
	case *jsonOut:
		b, err := fabricver.MarshalCertificate(certs[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
			return 1
		}
		fmt.Print(string(b))
	case *all:
		for _, cert := range certs {
			fmt.Println(cert.Summary())
		}
		if violated {
			fmt.Printf("=> FAILED: violations in the matrix above\n")
		} else {
			faults := ", single-fault survivable"
			if *noFaults {
				faults = " (faults not enumerated)"
			}
			fmt.Printf("=> all %d topology-routing pairs verified: acyclic CDG, consistent tables, full reachability, exact disables%s\n", len(certs), faults)
		}
	default:
		certs[0].Render(os.Stdout)
	}

	if violated {
		return 3
	}
	return 0
}
