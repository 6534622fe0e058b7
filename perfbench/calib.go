package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"time"
)

// A shared or virtual machine changes speed from one minute to the next
// (its neighbours come and go), by a quarter and more, which is more
// than any bound a timing could keep. The calibrator measures that
// speed with a fixed piece of work that runs no code of the program: a
// loopback round trip to a responder that does nothing, then hashing,
// sorting and map lookups over fixed data. It runs in short bursts
// spread over the timed phase, each after a collection, so that no
// garbage collection or sweep of the service runs beside it and its
// figure does not depend on how much garbage the service makes. Each
// timing is scaled by calNominal over the mean burst, so a figure reads
// as it would on a machine that does the calibration work in
// calNominal.
const (
	calNominal = 20 * time.Microsecond
	calOps     = 400 // calibration operations per burst
)

type calibrator struct {
	ln     net.Listener
	done   chan struct{}
	c      *conn
	req    *request
	data   []byte
	keys   []int
	sorted []int
	index  map[int]int
	sink   int
	lat    []time.Duration
	bursts []float64 // median operation time of each burst, in µs
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &calibrator{ln: ln, done: make(chan struct{}), data: make([]byte, 2048),
		keys: make([]int, 256), sorted: make([]int, 256), index: map[int]int{},
		lat: make([]time.Duration, calOps)}
	go rawResponder(ln, k.done)
	if k.c, err = dial(ln.Addr().String()); err != nil {
		k.close()
		return nil, err
	}
	k.req = newRequest("POST", "/v1/grammars/calc/parse", []byte(`{"input":"n + ( n * n ) - n","trees":true}`))
	r := rand.New(rand.NewPCG(1, 2))
	for i := range k.data {
		k.data[i] = byte(r.IntN(256))
	}
	for i := range k.keys {
		k.keys[i] = r.IntN(1 << 20)
		k.index[k.keys[i]] = i
	}
	return k, nil
}

// burst collects the heap, then times calOps calibration operations and
// keeps their median.
func (k *calibrator) burst() error {
	runtime.GC()
	for i := range k.lat {
		t0 := time.Now()
		if _, _, err := k.c.do(k.req); err != nil {
			return err
		}
		sum := sha256.Sum256(k.data)
		copy(k.sorted, k.keys)
		slices.Sort(k.sorted)
		for _, key := range k.sorted {
			k.sink += k.index[key]
		}
		k.sink += int(sum[0])
		k.lat[i] = time.Since(t0)
	}
	slices.Sort(k.lat)
	k.bursts = append(k.bursts, float64(k.lat[calOps/2])/1e3)
	return nil
}

// scale is the factor that turns a time measured during the run into
// one at calNominal.
func (k *calibrator) scale() float64 {
	var sum float64
	for _, b := range k.bursts {
		sum += b
	}
	return float64(calNominal) / 1e3 / (sum / float64(len(k.bursts)))
}

func (k *calibrator) close() {
	if k.c != nil {
		k.c.close()
	}
	k.ln.Close()
	<-k.done
}
