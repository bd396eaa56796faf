package core

// BuiltinSpecs returns one ParseSystem spec for every built-in topology
// kind crossed with each of its shipped deadlock-free routing variants —
// the matrix `fabricver -all` re-certifies on every commit and the
// conformance tests sweep. Every entry must analyze deadlock-free; the
// deliberately unsafe demonstration configurations (ring:...,unsafe, the
// torus figures) are excluded because they exist to exhibit cycles.
//
// When a new topology kind or routing algorithm lands in ParseSystem, add
// its spec(s) here: that single edit puts the new pair under the static
// Dally–Seitz certificate in CI and under the conformance matrix.
func BuiltinSpecs() []string {
	return []string{
		// Fractahedral family: fat and thin, with fan-out and group-size
		// variants (§2.1, §3.3).
		"fat-fract:levels=1",
		"fat-fract:levels=2",
		"fat-fract:levels=2,fanout",
		"fat-fract:levels=2,populate=24",
		"fat-fract:levels=2,group=3",
		"fat-fract:levels=2,group=5",
		"fat-fract:levels=3",
		"thin-fract:levels=1,fanout",
		"thin-fract:levels=2",
		"thin-fract:levels=3",
		// Fat trees and the degenerate U=1 tree.
		"fattree:d=4,u=2,nodes=64",
		"fattree:d=3,u=3,nodes=64",
		"fattree:d=4,u=2,nodes=23", // trimmed
		"tree:d=4,nodes=16",
		// Meshes under dimension-order routing.
		"mesh:cols=4,rows=4,nodes=2",
		"mesh:cols=6,rows=3,nodes=1",
		// Hypercubes under both shipped routings: e-cube and up*/down*.
		"hypercube:dim=3",
		"hypercube:dim=4",
		"hypercube:dim=3,updown",
		// Safe (seam-broken) rings.
		"ring:size=4",
		"ring:size=6",
		// Full-mesh router groups.
		"fullmesh:m=4",
		"fullmesh:m=4,ports=8",
		// Up*/down*-routed fixed-degree families.
		"ccc:dim=3",
		"shuffle:dim=4",
	}
}
