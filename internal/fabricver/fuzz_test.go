package fabricver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// FuzzMutatedTetra drives the verifier's never-panic contract: arbitrary
// single-entry corruptions of the tetrahedron's routing tables — holes,
// out-of-range ports, self-loops, mis-ejections — must always yield a
// certificate that either passes every check or carries a concrete
// counterexample, and the two outcomes must agree with the OK flag; and
// the route set must agree with per-pair Route walks on every pair. This
// is the fuzzing face of §2.4: the paper's hardware survives corrupted
// tables by path-disables; the verifier must survive them by diagnosis.
func FuzzMutatedTetra(f *testing.F) {
	f.Add(uint8(0), uint8(0), int16(-1))
	f.Add(uint8(1), uint8(3), int16(99))
	f.Add(uint8(2), uint8(5), int16(0))
	f.Add(uint8(3), uint8(7), int16(5))
	f.Fuzz(func(t *testing.T, routerSel, dstSel uint8, port int16) {
		sys, _, err := core.ParseSystem("fat-fract:levels=1")
		if err != nil {
			t.Fatal(err)
		}
		net := sys.Net
		var routers []topology.DeviceID
		for _, d := range net.Devices() {
			if d.Kind == topology.Router {
				routers = append(routers, d.ID)
			}
		}
		r := routers[int(routerSel)%len(routers)]
		dst := int(dstSel) % net.NumNodes()
		sys.Tables.SetOutPort(r, dst, int(port))

		cert := Verify(sys, "fuzz", Options{Workers: 1})
		if cert.OK != (len(cert.Violations) == 0) {
			t.Fatalf("OK=%v but %d violations", cert.OK, len(cert.Violations))
		}
		if !cert.Tables.OK && cert.OK {
			t.Fatal("bad tables but certificate OK")
		}
		if _, err := MarshalCertificate(cert); err != nil {
			t.Fatalf("certificate does not marshal: %v", err)
		}

		// Differential oracle for the route set the certificate is built
		// from: every pair's verdict and router-hop count match Route's.
		rs := sys.Tables.Sweep()
		for s := 0; s < net.NumNodes(); s++ {
			for d := 0; d < net.NumNodes(); d++ {
				if s == d {
					continue
				}
				route, err := sys.Tables.Route(s, d)
				want := route.RouterHops()
				if err != nil {
					want = -1
				}
				if got := rs.Hops(s, d); got != want {
					t.Fatalf("%d -> %d: route set hops %d, Route %d (err %v)", s, d, got, want, err)
				}
			}
		}
	})
}
