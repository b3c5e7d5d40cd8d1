package workload

// Table reconstructs the 41 workloads of Table 2 (Milic et al., MICRO
// 2017) in the paper's order. PaperCTAs and PaperFootprintMB carry the
// published time-weighted CTA counts and footprints (used verbatim by
// Figure 2 and Table 2); the generator parameters are tuned at
// simulation scale to land each workload in its published position:
//
//   - Grey workloads (9 of 41) reach ≥99% of theoretical scaling with
//     software locality alone and are excluded from Figures 6/8/9/10.
//   - Left-side workloads of Figures 6/8 are interconnect-bound: random
//     access over large shared structures (AMG, Euler3D, Lulesh) that
//     saturate both link directions, or cacheable shared tables
//     (RSBench, SP, SSSP) that reward remote caching enormously.
//   - Gather/reduction phases (CoMD, Lulesh, Nekbone, HPGMG-UVM,
//     AlexNet-Lev2) create the asymmetric link traffic that the dynamic
//     lane balancer exploits.
//   - Right-side workloads are local stencils/streams where static
//     cache partitioning wastes capacity and can hurt.
const (
	kb = 1 << 10
	mb = 1 << 20
)

// Table lists all 41 workloads in the paper's Table 2 order.
func Table() []Spec {
	return []Spec{
		{
			Name: "ML-GoogLeNet-cudnn-Lev2", PaperCTAs: 6272, PaperFootprintMB: 1205,
			CTAs: 1280, Warps: 2, Iters: 22, InBytes: 12 * mb, SharedBytes: 512 * kb,
			Phases: []Phase{{LocalLines: 2, SharedLines: 2, Broadcast: true, StoreLines: 1, Compute: 6}},
		},
		{
			Name: "ML-AlexNet-cudnn-Lev2", PaperCTAs: 1250, PaperFootprintMB: 832,
			CTAs: 1024, Warps: 2, Iters: 24, InBytes: 10 * mb, SharedBytes: 1 * mb,
			Phases:      []Phase{{LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Gather: true, Compute: 4}},
			GatherBytes: 192 * kb,
		},
		{
			Name: "ML-OverFeat-cudann-Lev3", PaperCTAs: 1800, PaperFootprintMB: 388, Grey: true,
			CTAs: 1024, Warps: 2, Iters: 20, InBytes: 8 * mb, SharedBytes: 256 * kb,
			Phases: []Phase{{LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 16}},
		},
		{
			Name: "ML-AlexNet-cudnn-Lev4", PaperCTAs: 1014, PaperFootprintMB: 32,
			CTAs: 768, Warps: 2, Iters: 24, InBytes: 3 * mb, SharedBytes: 256 * kb,
			Phases: []Phase{{LocalLines: 1, SharedLines: 2, Broadcast: true, StoreLines: 1, Compute: 6}},
		},
		{
			Name: "ML-AlexNet-ConvNet2", PaperCTAs: 6075, PaperFootprintMB: 97, Grey: true,
			CTAs: 1536, Warps: 2, Iters: 16, InBytes: 12 * mb, SharedBytes: 128 * kb,
			Phases: []Phase{{LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 20}},
		},
		{
			Name: "Rodinia-Backprop", PaperCTAs: 4096, PaperFootprintMB: 160, Grey: true,
			CTAs: 1536, Warps: 2, Iters: 7, InBytes: 16 * mb, SharedBytes: 64 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 5}},
		},
		{
			Name: "Rodinia-Euler3D", PaperCTAs: 1008, PaperFootprintMB: 25,
			CTAs: 1008, Warps: 2, Iters: 12, InBytes: 6 * mb, SharedBytes: 24 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, SharedLines: 3, StoreLines: 1, Compute: 2}},
		},
		{
			Name: "Rodinia-BFS", PaperCTAs: 1954, PaperFootprintMB: 38,
			CTAs: 1024, Warps: 2, Iters: 9, InBytes: 4 * mb, SharedBytes: 1536 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 2}},
		},
		{
			Name: "Rodinia-Gaussian", PaperCTAs: 2599, PaperFootprintMB: 78,
			CTAs: 1536, Warps: 2, Iters: 12, InBytes: 12 * mb, SharedBytes: 128 * kb,
			Phases: []Phase{
				{Name: "elim-0", CTAs: 1536, LocalLines: 1, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 3},
				{Name: "elim-1", CTAs: 1024, OffsetFrac: 0.25, LocalLines: 1, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 3},
				{Name: "elim-2", CTAs: 640, OffsetFrac: 0.5, LocalLines: 1, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 3},
				{Name: "elim-3", CTAs: 384, OffsetFrac: 0.7, LocalLines: 1, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 3},
			},
		},
		{
			Name: "Rodinia-Hotspot", PaperCTAs: 7396, PaperFootprintMB: 64,
			CTAs: 1536, Warps: 2, Iters: 7, InBytes: 16 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 4}},
		},
		{
			Name: "Rodinia-Kmeans", PaperCTAs: 3249, PaperFootprintMB: 221, Grey: true,
			CTAs: 1280, Warps: 2, Iters: 7, InBytes: 20 * mb, SharedBytes: 64 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 22}},
		},
		{
			Name: "Rodnia-Pathfinder", PaperCTAs: 4630, PaperFootprintMB: 1570,
			CTAs: 1536, Warps: 2, Iters: 8, InBytes: 24 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 2}},
		},
		{
			Name: "Rodinia-Srad", PaperCTAs: 16384, PaperFootprintMB: 98, Grey: true,
			CTAs: 1536, Warps: 2, Iters: 7, InBytes: 12 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, StoreLines: 1, Compute: 4}},
		},
		{
			Name: "HPC-SNAP", PaperCTAs: 200, PaperFootprintMB: 744,
			CTAs: 192, Warps: 4, Iters: 23, InBytes: 12 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 3, HaloLines: 1, StoreLines: 1, Compute: 5}},
		},
		{
			Name: "HPC-Nekbone-Large", PaperCTAs: 5583, PaperFootprintMB: 294,
			CTAs: 1024, Warps: 2, Iters: 8, InBytes: 12 * mb, SharedBytes: 8 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 3, SharedLines: 1, HotSkew: true, StoreLines: 1, Gather: true, Compute: 6}},
		},
		{
			Name: "HPC-MiniAMR", PaperCTAs: 76033, PaperFootprintMB: 2752,
			CTAs: 2048, Warps: 2, Iters: 7, InBytes: 32 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 3, HaloLines: 1, StoreLines: 1, Compute: 2}},
		},
		{
			Name: "HPC-MiniContact-Mesh1", PaperCTAs: 250, PaperFootprintMB: 21,
			CTAs: 224, Warps: 2, Iters: 31, InBytes: 2 * mb, SharedBytes: 768 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, SharedLines: 2, HotSkew: true, Compute: 4}},
		},
		{
			Name: "HPC-MiniContact-Mesh2", PaperCTAs: 15423, PaperFootprintMB: 257,
			CTAs: 1280, Warps: 2, Iters: 8, InBytes: 8 * mb, SharedBytes: 2 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, HotSkew: true, StoreLines: 1, Gather: true, Compute: 3}},
		},
		{
			Name: "HPC-Lulesh-Unstruct-Mesh1", PaperCTAs: 435, PaperFootprintMB: 19,
			CTAs: 384, Warps: 2, Iters: 16, InBytes: 2 * mb, SharedBytes: 1536 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 2}},
		},
		{
			Name: "HPC-Lulesh-Unstruct-Mesh2", PaperCTAs: 4940, PaperFootprintMB: 208,
			CTAs: 1024, Warps: 2, Iters: 9, InBytes: 8 * mb, SharedBytes: 3 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 2}},
		},
		{
			Name: "HPC-AMG", PaperCTAs: 241549, PaperFootprintMB: 3744,
			CTAs: 1536, Warps: 2, Iters: 9, InBytes: 8 * mb, SharedBytes: 40 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, SharedLines: 4, StoreLines: 1, Compute: 1}},
		},
		{
			Name: "HPC-RSBench", PaperCTAs: 7813, PaperFootprintMB: 19,
			CTAs: 1024, Warps: 2, Iters: 28, InBytes: 2 * mb, SharedBytes: 512 * kb,
			Phases: []Phase{{SharedLines: 6, Compute: 5}},
		},
		{
			Name: "HPC-MCB", PaperCTAs: 5001, PaperFootprintMB: 162,
			CTAs: 1024, Warps: 2, Iters: 9, InBytes: 6 * mb, SharedBytes: 2 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, HotSkew: true, Compute: 8}},
		},
		{
			Name: "HPC-NAMD2.9", PaperCTAs: 3888, PaperFootprintMB: 88,
			CTAs: 1024, Warps: 2, Iters: 8, InBytes: 6 * mb, SharedBytes: 2 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, HotSkew: true, Compute: 8}},
		},
		{
			Name: "HPC-RabbitCT", PaperCTAs: 131072, PaperFootprintMB: 524, Grey: true,
			CTAs: 1536, Warps: 2, Iters: 14, InBytes: 16 * mb, SharedBytes: 256 * kb,
			Phases: []Phase{{LocalLines: 2, SharedLines: 1, Broadcast: true, StoreLines: 1, Compute: 12}},
		},
		{
			Name: "HPC-Lulesh", PaperCTAs: 12202, PaperFootprintMB: 578,
			CTAs: 1280, Warps: 2, Iters: 8, InBytes: 10 * mb, SharedBytes: 16 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, SharedLines: 3, HotSkew: true, StoreLines: 1, Compute: 2}},
		},
		{
			Name: "HPC-CoMD", PaperCTAs: 3588, PaperFootprintMB: 319,
			CTAs: 1024, Warps: 2, Iters: 8, InBytes: 8 * mb, SharedBytes: 2 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, HaloLines: 1, SharedLines: 1, HotSkew: true, StoreLines: 1, Gather: true, Compute: 4}},
		},
		{
			Name: "HPC-CoMD-Wa", PaperCTAs: 13691, PaperFootprintMB: 393,
			CTAs: 1280, Warps: 2, Iters: 7, InBytes: 10 * mb, SharedBytes: 3 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, HaloLines: 1, SharedLines: 1, HotSkew: true, StoreLines: 1, Gather: true, Compute: 3}},
		},
		{
			Name: "HPC-CoMD-Ta", PaperCTAs: 5724, PaperFootprintMB: 394,
			CTAs: 1024, Warps: 2, Iters: 9, InBytes: 8 * mb, SharedBytes: 3 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 2}},
		},
		{
			Name: "HPC-HPGMG-UVM", PaperCTAs: 10436, PaperFootprintMB: 1975,
			CTAs: 1536, Warps: 2, Iters: 8, InBytes: 16 * mb, SharedBytes: 8 * mb,
			GatherBytes: 256 * kb,
			Phases: []Phase{
				{Name: "smooth-l0", CTAs: 1536, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3, Repeat: 2},
				{Name: "restrict", CTAs: 384, Reverse: true, LocalLines: 2, StoreLines: 2, Gather: true, Compute: 2, Iters: 14},
				{Name: "smooth-l1", CTAs: 384, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3},
				{Name: "prolong", CTAs: 1536, LocalLines: 1, SharedLines: 1, StoreLines: 1, Compute: 2},
				{Name: "smooth-l0b", CTAs: 1536, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3, Repeat: 2},
				{Name: "restrict-b", CTAs: 384, Reverse: true, LocalLines: 2, StoreLines: 2, Gather: true, Compute: 2, Iters: 14},
				{Name: "smooth-l1b", CTAs: 384, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3},
				{Name: "prolong-b", CTAs: 1536, LocalLines: 1, SharedLines: 1, StoreLines: 1, Compute: 2},
			},
		},
		{
			Name: "HPC-HPGMG", PaperCTAs: 10506, PaperFootprintMB: 1571,
			CTAs: 1536, Warps: 2, Iters: 8, InBytes: 16 * mb,
			Phases: []Phase{
				{Name: "smooth-l0", CTAs: 1536, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3, Repeat: 2},
				{Name: "restrict", CTAs: 384, LocalLines: 2, StoreLines: 1, Compute: 2},
				{Name: "smooth-l1", CTAs: 384, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3},
				{Name: "prolong", CTAs: 1536, LocalLines: 2, StoreLines: 1, Compute: 2},
				{Name: "smooth-l0b", CTAs: 1536, LocalLines: 2, HaloLines: 1, StoreLines: 1, Compute: 3, Repeat: 2},
			},
		},
		{
			Name: "Lonestar-SP", PaperCTAs: 75, PaperFootprintMB: 8,
			CTAs: 72, Warps: 2, Iters: 57, InBytes: 1 * mb, SharedBytes: 768 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, SharedLines: 2, HotSkew: true, Compute: 4}},
		},
		{
			Name: "Lonestar-MST-Graph", PaperCTAs: 770, PaperFootprintMB: 86,
			CTAs: 640, Warps: 2, Iters: 12, InBytes: 4 * mb, SharedBytes: 2560 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 3}},
		},
		{
			Name: "Lonestar-MST-Mesh", PaperCTAs: 895, PaperFootprintMB: 75,
			CTAs: 768, Warps: 2, Iters: 12, InBytes: 4 * mb, SharedBytes: 1536 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, Compute: 2}},
		},
		{
			Name: "Lonestar-SSSP-Wln", PaperCTAs: 60, PaperFootprintMB: 21,
			CTAs: 64, Warps: 2, Iters: 60, InBytes: 1 * mb, SharedBytes: 1 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, Compute: 3}},
		},
		{
			Name: "Lonestar-DMR", PaperCTAs: 82, PaperFootprintMB: 248, Grey: true,
			CTAs: 96, Warps: 4, Iters: 39, InBytes: 4 * mb,
			Phases: []Phase{{Repeat: 2, LocalLines: 1, Compute: 30}},
		},
		{
			Name: "Lonestar-SSSP-Wlc", PaperCTAs: 163, PaperFootprintMB: 21,
			CTAs: 160, Warps: 2, Iters: 38, InBytes: 2 * mb, SharedBytes: 1280 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, StoreLines: 1, Gather: true, Compute: 3}},
		},
		{
			Name: "Lonestar-SSSP", PaperCTAs: 1046, PaperFootprintMB: 38,
			CTAs: 1024, Warps: 2, Iters: 8, InBytes: 4 * mb, SharedBytes: 1536 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 1, HotSkew: true, Compute: 3}},
		},
		{
			Name: "Other-Stream-Triad", PaperCTAs: 699051, PaperFootprintMB: 3146, Grey: true,
			CTAs: 2048, Warps: 2, Iters: 16, InBytes: 48 * mb,
			Phases: []Phase{{LocalLines: 3, StoreLines: 1, Compute: 1}},
		},
		{
			Name: "Other-Optix-Raytracing", PaperCTAs: 3072, PaperFootprintMB: 87,
			CTAs: 1024, Warps: 2, Iters: 8, InBytes: 4 * mb, SharedBytes: 2560 * kb,
			Phases: []Phase{{Repeat: 2, LocalLines: 2, SharedLines: 2, HotSkew: true, Compute: 10}},
		},
		{
			Name: "Other-Bitcoin-Crypto", PaperCTAs: 60, PaperFootprintMB: 5898, Grey: true,
			CTAs: 64, Warps: 4, Iters: 120, InBytes: 4 * mb,
			Phases: []Phase{{LocalLines: 1, Compute: 40}},
		},
	}
}

// ByName returns the spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range Table() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
