package bench

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. This benchmark's host is a few cores of a shared
// machine whose speed drifts with its neighbours' load: the same
// operation ran 1.8× slower in some minutes than in others, and whole
// runs were slow together, so no run length averaged the drift out.
// Which resource the neighbours contend for changes from minute to
// minute, so the reference is three fixed loops, each bound by a
// different one: independent integer arithmetic (execution ports), a
// small bytecode interpreter (instruction fetch and dispatch, L2), and
// random read-modify-writes over 16 MB (L3 and TLB). Their total time
// moves with the simulator's. After every timed operation and every
// set-up, the benchmark times the reference and reports the operation's
// time scaled by refNominalMs / reference: its time on a host where the
// reference takes refNominalMs. The loops are part of the benchmark, not
// of the system, so no change to the system moves them.

const (
	ilpSteps = 16 << 20

	interpWords = 1 << 16 // 256 KB
	interpSteps = 3 << 20

	memWords = 4 << 20 // 16 MB
	memSteps = 2 << 20

	// refNominalMs is the host speed the normalized times are quoted at:
	// a round figure at the fast end of the 25–60 ms the reference took
	// on a shared 2-vCPU Xeon host.
	refNominalMs = 30.0
)

var (
	refOnce   sync.Once
	refMem    []uint32 // memWords for memLoop, then interpWords for interpLoop
	refResult uint64   // keeps the loops' results live
)

// refBuffer maps the loops' memory outside the Go heap, so it neither
// counts toward peak_mem_mb nor costs the collector anything.
func refBuffer() []uint32 {
	refOnce.Do(func() {
		words := memWords + interpWords
		b, err := syscall.Mmap(-1, 0, words*4, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("bench: mapping the host reference buffer: " + err.Error())
		}
		refMem = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), words)
	})
	return refMem
}

// hostRefMs times one pass of the reference, in milliseconds. Untimed,
// it first resets the interpreter's memory and sweeps the 16 MB buffer
// back into the caches, so every pass starts from the same state
// whatever the last operation evicted.
func hostRefMs() float64 {
	buf := refBuffer()
	mem, imem := buf[:memWords], buf[memWords:]
	var sum uint32
	for i, w := range mem {
		sum += w ^ uint32(i)
	}
	for i := range imem {
		imem[i] = uint32(i) * 2654435761
	}
	t0 := time.Now()
	r := ilpLoop(ilpSteps) + interpLoop(imem, interpSteps) + memLoop(mem, memSteps)
	ms := since(t0, time.Millisecond)
	refResult += r + uint64(sum)
	return ms
}

// ilpLoop runs four independent integer dependency chains.
//
//go:noinline
func ilpLoop(n int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < n; i++ {
		a = a*3 + b
		b ^= c >> 3
		c += d<<1 | 1
		d = d*5 ^ a
	}
	return a + b + c + d
}

// interpLoop interprets a fixed twelve-instruction program over four
// registers and mem.
//
//go:noinline
func interpLoop(mem []uint32, n int) uint64 {
	prog := [...]byte{0, 1, 2, 3, 4, 1, 5, 2, 0, 6, 3, 7}
	var r [4]uint32
	r[0] = 1
	mask := uint32(len(mem) - 1)
	pc := 0
	for i := 0; i < n; i++ {
		switch prog[pc] {
		case 0:
			r[0] += r[1] + 7
		case 1:
			r[1] = mem[(r[0]*2654435761)>>12&mask]
		case 2:
			mem[(r[2]+r[0])&mask] = r[1] ^ r[3]
		case 3:
			r[2] += 4
		case 4:
			r[3] = r[0] ^ r[2]
		case 5:
			if r[1]&1 != 0 {
				r[3]++
			}
		case 6:
			r[0] = r[0]<<1 | r[0]>>31
		case 7:
			r[1] -= r[3]
		}
		if pc++; pc == len(prog) {
			pc = 0
		}
	}
	return uint64(r[0] + r[1] + r[2] + r[3])
}

// memLoop does n read-modify-writes at pseudo-random words of mem.
//
//go:noinline
func memLoop(mem []uint32, n int) uint64 {
	mask := uint64(len(mem) - 1)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		mem[(x>>29)&mask] += uint32(x)
	}
	return x
}

// normalized scales ms, measured while the reference took refMs, to the
// nominal host speed.
func normalized(ms, refMs float64) float64 {
	return ratio(ms*refNominalMs, refMs)
}
