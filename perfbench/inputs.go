package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"
)

// The benchmark builds its own traffic from the -seed argument, so a change
// to the ingest package's generator cannot alter what is offered. Frames
// are 48-byte Packet-over-SONET IPv4 frames (the paper's minimum-size
// case) drawn from a fixed number of concurrent flows whose lengths follow
// a Pareto law; a small share carries TTL 1 and takes the slow path.

// rng is splitmix64: tiny, seedable and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// pareto draws a Pareto variate with scale xm and tail index alpha.
func (r *rng) pareto(xm, alpha float64) float64 { return xm / math.Pow(1-r.float(), 1/alpha) }

// trafficConfig shapes the generated packet set.
type trafficConfig struct {
	Packets  int     // frames to build
	Flows    int     // concurrent flows; a finished flow is replaced at once
	Alpha    float64 // Pareto tail index of flow lengths (packets)
	MinLen   float64 // Pareto scale: the shortest flow, in packets
	MaxLen   int     // cap on one flow's length
	SlowFrac float64 // share of frames with TTL 1 (the slow path)
}

// defaultTraffic is the traffic every IPv4 workload serves.
func defaultTraffic(packets int) trafficConfig {
	return trafficConfig{Packets: packets, Flows: 256, Alpha: 1.3, MinLen: 4, MaxLen: 1 << 14, SlowFrac: 1.0 / 32}
}

type flow struct {
	src, dst     [4]byte
	sport, dport uint16
	dscp         byte
	id           uint16
	left         int
}

func newFlow(r *rng, cfg trafficConfig) *flow {
	f := &flow{sport: uint16(1024 + r.intn(60000)), dport: uint16([]int{53, 80, 443, 4789}[r.intn(4)]),
		dscp: byte(r.intn(64)), id: uint16(r.next())}
	// Sources come from unicast space the IPv4 PPS does not filter as
	// martian; destinations spread over the demo FIB's /8, /16 and /24
	// routes and its default route.
	f.src = [4]byte{byte([]int{10, 172, 192, 100}[r.intn(4)]), byte(r.next()), byte(r.next()), byte(1 + r.intn(254))}
	switch r.intn(4) {
	case 0:
		f.dst = [4]byte{byte(1 + r.intn(8)), byte(r.next()), byte(r.next()), byte(r.next())}
	case 1:
		f.dst = [4]byte{10, byte(r.intn(16)), byte(r.next()), byte(r.next())}
	case 2:
		f.dst = [4]byte{10, 1, byte(r.intn(32)), byte(r.next())}
	default:
		f.dst = [4]byte{byte(11 + r.intn(100)), byte(r.next()), byte(r.next()), byte(r.next())}
	}
	f.left = int(math.Min(r.pareto(cfg.MinLen, cfg.Alpha), float64(cfg.MaxLen)))
	return f
}

// frameSize is the Packet-over-SONET minimum frame; frameHdr its
// HDLC/PPP header in front of the IPv4 header.
const (
	frameSize = 48
	frameHdr  = 4
)

// frame encodes one packet of f as a POS frame with a valid IPv4 header
// checksum.
func (f *flow) frame(ttl byte) []byte {
	p := make([]byte, frameSize)
	p[0], p[1], p[2], p[3] = 0xFF, 0x03, 0x00, 0x21
	ip := p[frameHdr:]
	total := frameSize - frameHdr
	ip[0] = 0x45
	ip[1] = f.dscp << 2
	binary.BigEndian.PutUint16(ip[2:], uint16(total))
	binary.BigEndian.PutUint16(ip[4:], f.id)
	ip[8] = ttl
	ip[9] = 17
	copy(ip[12:16], f.src[:])
	copy(ip[16:20], f.dst[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:20]))
	binary.BigEndian.PutUint16(ip[20:], f.sport)
	binary.BigEndian.PutUint16(ip[22:], f.dport)
	f.id++
	return p
}

// ipChecksum is the ones'-complement header checksum of hdr with its
// checksum field taken as zero.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// genTraffic builds cfg.Packets frames from seed. Each frame belongs to a
// flow picked uniformly from the active set, so flows interleave.
func genTraffic(seed uint64, cfg trafficConfig) [][]byte {
	r := &rng{s: seed}
	active := make([]*flow, cfg.Flows)
	for i := range active {
		active[i] = newFlow(r, cfg)
	}
	out := make([][]byte, cfg.Packets)
	for i := range out {
		k := r.intn(len(active))
		f := active[k]
		ttl := byte(64)
		if r.float() < cfg.SlowFrac {
			ttl = 1
		}
		out[i] = f.frame(ttl)
		if f.left--; f.left <= 0 {
			active[k] = newFlow(r, cfg)
		}
	}
	return out
}

// scheduleConfig shapes an open-loop arrival schedule: on/off bursts with
// exponential dwell times, arrivals evenly spaced at Peak while on, none
// while off. The off dwell mean follows from the other three values.
type scheduleConfig struct {
	Mean   float64       // mean offered rate, pkt/s
	Peak   float64       // rate while on, pkt/s
	MeanOn time.Duration // mean on dwell
}

// meanOff is the off dwell mean that makes the long-run rate Mean.
func (c scheduleConfig) meanOff() time.Duration {
	on := c.Mean / c.Peak
	return time.Duration(float64(c.MeanOn) * (1 - on) / on)
}

// openSchedule is the due-time schedule of one packet set.
type openSchedule struct {
	Due      []time.Duration // per-packet due time from the first Pull
	OnDwell  []time.Duration // realized on periods
	OffDwell []time.Duration // realized off periods
}

// genSchedule lays n arrivals over seeded on/off periods. The realized
// times are then scaled so the set's mean rate is exactly cfg.Mean, which
// keeps the offered load identical from seed to seed; the scale factor is
// close to one for any n spanning many periods.
func genSchedule(seed uint64, n int, cfg scheduleConfig) openSchedule {
	r := &rng{s: seed ^ 0x5EED5C4ED01E}
	gap := 1 / cfg.Peak
	var s openSchedule
	s.Due = make([]time.Duration, n)
	t := 0.0
	on := r.exp(cfg.MeanOn.Seconds())
	end := t + on
	for i := 0; i < n; i++ {
		if t >= end {
			s.OnDwell = append(s.OnDwell, secs(on))
			off := r.exp(cfg.meanOff().Seconds())
			s.OffDwell = append(s.OffDwell, secs(off))
			t = end + off
			on = r.exp(cfg.MeanOn.Seconds())
			end = t + on
		}
		s.Due[i] = secs(t)
		t += gap
	}
	scale := float64(n) / cfg.Mean / t
	for i := range s.Due {
		s.Due[i] = time.Duration(float64(s.Due[i]) * scale)
	}
	for i := range s.OnDwell {
		s.OnDwell[i] = time.Duration(float64(s.OnDwell[i]) * scale)
	}
	for i := range s.OffDwell {
		s.OffDwell[i] = time.Duration(float64(s.OffDwell[i]) * scale)
	}
	return s
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// inputDigest fingerprints a packet set and its schedule (nil for closed
// loops), so two runs can show they offered identical inputs.
func inputDigest(pkts [][]byte, due []time.Duration) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range pkts {
		binary.LittleEndian.PutUint64(b[:], uint64(len(p)))
		h.Write(b[:])
		h.Write(p)
	}
	for _, d := range due {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// copyPackets returns fresh copies of pkts backed by one arena. Each serve
// round gets its own copies: ownership of a packet passes to the pipeline
// at Pull, and the IPv4 PPS rewrites TTL and checksum in place.
func copyPackets(pkts [][]byte) [][]byte {
	n := 0
	for _, p := range pkts {
		n += len(p)
	}
	arena := make([]byte, 0, n)
	out := make([][]byte, len(pkts))
	for i, p := range pkts {
		off := len(arena)
		arena = append(arena, p...)
		out[i] = arena[off:len(arena):len(arena)]
	}
	return out
}
