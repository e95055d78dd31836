package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// workers is the number of worker goroutines. It is fixed (not taken from
// the machine) so a seed generates the same per-goroutine op streams
// everywhere; each goroutine drives a disjoint set of logical threads.
const workers = 2

// Op kinds of a generated operation.
const (
	kindWrite uint8 = iota
	kindRead
	// kindRegister registers obj as a new tracker object; it commits
	// nothing and is not counted as an operation.
	kindRegister
)

// op is one generated operation. thread and obj index the round's thread
// and object handles.
type op struct {
	obj    uint32
	thread uint16
	kind   uint8
	// reveal marks the first commit on this (thread, object) pair: the
	// cover has never seen the edge. The generator knows this because
	// every thread is driven by exactly one goroutine, so the first
	// occurrence in that goroutine's stream is the first commit overall.
	reveal bool
}

// spec describes one workload. Sizes are per round; a run replays the same
// generated round against fresh trackers until its time is used.
type spec struct {
	name    string
	threads int // logical tracker threads, split evenly over the workers
	objects int // objects registered at set-up
	// perThread is the size of each thread's fixed object set. skewed
	// draws the sets, from the objects of the thread's own worker, and the
	// per-op choice within a set by Zipf (s=1.1) instead of uniformly over
	// all objects. ring lays each worker's threads and objects out in a
	// ring instead, each object shared by two neighbouring threads, so the
	// set-up graph does not depend on the seed.
	perThread int
	skewed    bool
	ring      bool
	readFrac  float64
	// warmOps is the per-goroutine length of the set-up pass that follows
	// the edge-revealing warmup; roundOps the per-goroutine measured ops.
	warmOps  int
	roundOps int
	// newEvery and newTouch shape discovery: every newEvery measured ops
	// a goroutine registers a new object, which newTouch distinct threads
	// of that goroutine then write at once.
	newEvery int
	newTouch int
	// rate is the open-loop arrival rate in ops per second over all
	// workers; 0 means closed loop.
	rate float64
	// durable opens the tracker on a directory with loadgen's store
	// policies and a live monitor.
	durable bool
}

// paced reports whether the workload runs open loop.
func (s spec) paced() bool { return s.rate > 0 }

// specs are the benchmark's workloads at full size.
var specs = map[string]spec{
	"mem-local": {
		name: "mem-local", threads: 32, objects: 1024, perThread: 6, skewed: true,
		readFrac: 0.9, warmOps: 20_000, roundOps: 300_000,
	},
	"discovery": {
		name: "discovery", threads: 32, objects: 64, perThread: 4, ring: true,
		readFrac: 0.3, warmOps: 20_000, roundOps: 100_000, newEvery: 200, newTouch: 4,
	},
	"durable-paced": {
		name: "durable-paced", threads: 32, objects: 256, perThread: 16,
		readFrac: 0.2, warmOps: 20_000, rate: 30_000, durable: true,
	},
}

// inputs is everything a run feeds the tracker, generated from the seed
// before any timing starts.
type inputs struct {
	spec spec
	// objects is the total number of object handles a round ends with:
	// the set-up objects plus every registered new object.
	objects int
	// reveal commits every set-up edge once, thread by thread; set-up
	// runs it from one goroutine so the cover sees the edges in the same
	// order every round. warmup[g] is worker g's set-up pass after it,
	// and stream[g] its measured phase.
	reveal []op
	warmup [workers][]op
	stream [workers][]op
	// edges lists every distinct (thread, object) pair the round commits.
	edges [][2]int
}

// ops is the number of measured operations in one round (registrations
// excluded).
func (in *inputs) ops() int {
	n := 0
	for _, s := range in.stream {
		for _, o := range s {
			if o.kind != kindRegister {
				n++
			}
		}
	}
	return n
}

// generate builds a round's inputs. roundOps overrides the spec's
// per-goroutine measured length (paced workloads derive it from their
// round duration).
func generate(sp spec, seed int64, roundOps int) *inputs {
	in := &inputs{spec: sp, objects: sp.objects}
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint32, sp.threads)
	// Skewed and ring sets stay within the objects of the thread's worker
	// (those congruent to it), so objects are shared by many threads but
	// the two workers never hand an object's mutex back and forth across
	// cores, which made throughput swing with the seed.
	own := sp.objects / workers
	for t := range sets {
		switch {
		case sp.ring:
			for j := 0; j < sp.perThread; j++ {
				sets[t] = append(sets[t], uint32((sp.perThread*(t/workers)/2+j)%own))
			}
		case sp.skewed:
			sets[t] = drawSet(rng, own, sp.perThread, true)
		default:
			sets[t] = drawSet(rng, sp.objects, sp.perThread, false)
			continue
		}
		for i, o := range sets[t] {
			sets[t][i] = o*workers + uint32(t%workers)
		}
	}
	seen := make(map[[2]int]bool)
	mark := func(o *op) {
		k := [2]int{int(o.thread), int(o.obj)}
		if o.kind != kindRegister && !seen[k] {
			seen[k] = true
			o.reveal = true
			in.edges = append(in.edges, k)
		}
	}
	newPerWorker := 0
	if sp.newEvery > 0 {
		newPerWorker = (roundOps + sp.newEvery - 1) / sp.newEvery
	}
	for t, set := range sets {
		for _, o := range set {
			in.reveal = append(in.reveal, op{thread: uint16(t), obj: o, kind: kindWrite})
		}
	}
	for i := range in.reveal {
		mark(&in.reveal[i])
	}
	for g := 0; g < workers; g++ {
		grng := rand.New(rand.NewSource(seed + 1 + int64(g)))
		mine := ownThreads(sp.threads, g)
		pick := picker(grng, sp)
		var warm []op
		for i := 0; i < sp.warmOps; i++ {
			t := mine[grng.Intn(len(mine))]
			warm = append(warm, op{thread: uint16(t), obj: sets[t][pick()], kind: kindOf(grng, sp.readFrac)})
		}
		for i := range warm {
			mark(&warm[i])
		}
		in.warmup[g] = warm

		// recent[t] holds the new objects thread t has written, newest
		// last, so later ops revisit them without revealing edges.
		recent := make(map[int][]uint32)
		next := sp.objects + g*newPerWorker
		stream := make([]op, 0, roundOps+newPerWorker*(1+sp.newTouch))
		for i := 0; i < roundOps; i++ {
			if sp.newEvery > 0 && i%sp.newEvery == 0 {
				obj := uint32(next)
				next++
				stream = append(stream, op{obj: obj, kind: kindRegister})
				for _, k := range grng.Perm(len(mine))[:sp.newTouch] {
					t := mine[k]
					stream = append(stream, op{thread: uint16(t), obj: obj, kind: kindWrite})
					r := append(recent[t], obj)
					if len(r) > 4 {
						r = r[1:]
					}
					recent[t] = r
				}
				i += sp.newTouch - 1
				continue
			}
			t := mine[grng.Intn(len(mine))]
			obj := sets[t][pick()]
			if r := recent[t]; len(r) > 0 && grng.Intn(2) == 0 {
				obj = r[grng.Intn(len(r))]
			}
			stream = append(stream, op{thread: uint16(t), obj: obj, kind: kindOf(grng, sp.readFrac)})
		}
		for i := range stream {
			mark(&stream[i])
		}
		in.stream[g] = stream
	}
	in.objects += workers * newPerWorker
	return in
}

// ownThreads lists the logical threads worker g owns: every thread t with
// t mod workers == g.
func ownThreads(threads, g int) []int {
	var out []int
	for t := g; t < threads; t += workers {
		out = append(out, t)
	}
	return out
}

// drawSet draws n distinct objects out of total, Zipf-skewed toward low
// indices when skewed (so hot objects are shared by many threads).
func drawSet(rng *rand.Rand, total, n int, skewed bool) []uint32 {
	var z *rand.Zipf
	if skewed {
		z = rand.NewZipf(rng, 1.1, 1, uint64(total-1))
	}
	set := make([]uint32, 0, n)
	have := make(map[uint32]bool, n)
	for len(set) < n {
		var o uint32
		if z != nil {
			o = uint32(z.Uint64())
		} else {
			o = uint32(rng.Intn(total))
		}
		if !have[o] {
			have[o] = true
			set = append(set, o)
		}
	}
	// Hottest first, so a skewed choice within the set favours the
	// globally popular objects whatever order they were drawn in.
	slices.Sort(set)
	return set
}

// picker returns the per-op choice of a position within a thread's set.
func picker(rng *rand.Rand, sp spec) func() int {
	if sp.skewed {
		z := rand.NewZipf(rng, 1.1, 1, uint64(sp.perThread-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(sp.perThread) }
}

func kindOf(rng *rand.Rand, readFrac float64) uint8 {
	if rng.Float64() < readFrac {
		return kindRead
	}
	return kindWrite
}

// digest hashes the workload parameters and every generated op, so runs on
// two commits can be shown to have been fed identical work.
func (in *inputs) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d\n", in.spec, in.objects)
	var buf [8]byte
	for _, streams := range [][]([]op){{in.reveal}, in.warmup[:], in.stream[:]} {
		for _, s := range streams {
			for _, o := range s {
				binary.LittleEndian.PutUint32(buf[0:], o.obj)
				binary.LittleEndian.PutUint16(buf[4:], o.thread)
				buf[6] = o.kind
				buf[7] = 0
				if o.reveal {
					buf[7] = 1
				}
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pacedRoundOps is the per-goroutine length of a paced round lasting d.
func pacedRoundOps(sp spec, d time.Duration) int {
	return int(sp.rate * d.Seconds() / workers)
}
