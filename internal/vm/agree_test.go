package vm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"radixvm/internal/vm"
)

// TestSystemsAgreeOnRandomOps is a cross-system differential oracle: it
// drives radixvm, linux and bonsai in lockstep through seeded single-core
// sequences of Mmap, Munmap and Mprotect over partially overlapping ranges
// (some file-backed, protections down to Prot(0)), truncation of the
// shared file, Fork (continuing in the child) and read/write Access, and
// requires every operation's error to agree across all three. The figures
// map fresh ranges and unmap whole regions; this covers the region-split,
// file-offset, revocation and copy-on-write paths they never reach.
func TestSystemsAgreeOnRandomOps(t *testing.T) {
	const (
		seeds  = 200
		ops    = 80
		base   = uint64(1000)
		window = uint64(48)
	)
	prots := []vm.Prot{
		0, vm.ProtRead, vm.ProtWrite, vm.ProtRead | vm.ProtWrite,
		vm.ProtRead | vm.ProtExec, vm.ProtRead | vm.ProtWrite | vm.ProtExec,
	}
	for seed := int64(0); seed < seeds; seed++ {
		w := newWorld(1)
		c := m0(w)
		syss := systems(w)
		file := vm.NewFile(w.alloc)
		file.Truncate(c, 24) // offsets past EOF fault: file offsets are observable
		rng := rand.New(rand.NewSource(seed))
		var trace []string
		for op := 0; op < ops; op++ {
			lo := base + uint64(rng.Intn(int(window)))
			n := uint64(1 + rng.Intn(16))
			prot := prots[rng.Intn(len(prots))]
			var desc string
			var do func(s vm.System) (vm.System, error)
			switch r := rng.Intn(100); {
			case r < 28:
				opts := vm.MapOpts{Prot: prot}
				if rng.Intn(2) == 0 {
					opts.File = file
					opts.Offset = uint64(rng.Intn(32))
				}
				desc = fmt.Sprintf("Mmap(%d, %d, prot=%v, file=%v, off=%d)", lo, n, prot, opts.File != nil, opts.Offset)
				do = func(s vm.System) (vm.System, error) { return s, s.Mmap(c, lo, n, opts) }
			case r < 38:
				desc = fmt.Sprintf("Munmap(%d, %d)", lo, n)
				do = func(s vm.System) (vm.System, error) { return s, s.Munmap(c, lo, n) }
			case r < 52:
				desc = fmt.Sprintf("Mprotect(%d, %d, %v)", lo, n, prot)
				do = func(s vm.System) (vm.System, error) { return s, s.Mprotect(c, lo, n, prot) }
			case r < 59:
				// One file shared by all three systems: the truncate
				// revokes through every registered mapper, so a system
				// that missed a registration keeps a stale translation.
				n = uint64(8 + rng.Intn(32))
				grow := n + uint64(rng.Intn(16))
				desc = fmt.Sprintf("Truncate(%d), Extend(%d)", n, grow)
				file.Truncate(c, n)
				file.Extend(grow)
				do = func(s vm.System) (vm.System, error) { return s, nil }
			case r < 63:
				desc = "Fork"
				do = func(s vm.System) (vm.System, error) {
					ch, err := s.Fork(c)
					if err != nil {
						return s, err
					}
					return ch, nil
				}
			default:
				write := rng.Intn(2) == 0
				desc = fmt.Sprintf("Access(%d, write=%v)", lo, write)
				do = func(s vm.System) (vm.System, error) { return s, s.Access(c, lo, write) }
			}
			trace = append(trace, desc)
			errs := make([]error, len(syss))
			for i, s := range syss {
				syss[i], errs[i] = do(s)
			}
			for i := 1; i < len(syss); i++ {
				if !errors.Is(errs[i], errs[0]) {
					t.Fatalf("seed %d op %d %s: %s=%v but %s=%v\ntrace:\n%v",
						seed, op, desc, syss[0].Name(), errs[0], syss[i].Name(), errs[i], trace)
				}
			}
		}
	}
}
