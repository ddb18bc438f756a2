// Package simos is the simulated operating system beneath the guest: a
// virtual filesystem, a virtual network with scripted clients, a clock, a
// PRNG, and a heap allocator, all exposed through the VM's syscall
// interface.
//
// Two properties matter for DoublePlay. First, every syscall result is a
// value plus a set of guest-memory writes, so the recorder can log it and
// the replayer can inject it without the OS present. Second, the entire
// mutable world is snapshotable (Clone), which is how the simulator models
// the paper's input-buffering and deferred output commit: on forward
// recovery the world rolls back with the checkpoint, and externally visible
// output is an append-only hash that commits per epoch.
package simos

import (
	"cmp"
	"slices"

	"doubleplay/internal/vm"
)

// Word aliases the guest word type.
type Word = vm.Word

// Syscall numbers. A call the OS cannot service — an unknown number, a bad
// or closed descriptor, an out-of-range length — returns -1 and changes
// nothing; no syscall faults the thread.
const (
	SysPrint    Word = 1  // (addr, n) -> n; hashes n words into the output commit; -1 for n outside [0, 2^24]
	SysAlloc    Word = 2  // (nwords) -> addr; bump allocation; -1 for nwords outside [0, 2^26]
	SysTime     Word = 3  // () -> current simulated cycle
	SysRand     Word = 4  // () -> pseudorandom non-negative word
	SysOpen     Word = 5  // (nameAddr, nameLen) -> fd; -1 for a missing file or nameLen outside [0, 4096]
	SysRead     Word = 6  // (fd, bufAddr, n) -> words read (0 at EOF); -1 for a bad fd or n < 0
	SysWrite    Word = 7  // (fd, bufAddr, n) -> n; hashes into the output commit; -1 as SysPrint
	SysClose    Word = 8  // (fd) -> 0; -1 for a bad fd
	SysFileSize Word = 9  // (fd) -> size in words; -1 for a bad fd
	SysListen   Word = 10 // () -> listener fd
	SysAccept   Word = 11 // (lfd) -> conn fd; blocks until a client arrives; -1 when script exhausted
	SysRecv     Word = 12 // (cfd, bufAddr, max) -> words received; blocks; 0 at connection EOF; -1 for a bad cfd or max <= 0
	SysSend     Word = 13 // (cfd, addr, n) -> n; hashes into the output commit; -1 as SysPrint
	SysFetch    Word = 14 // (off, n, bufAddr) -> words fetched from the remote source after latency; -1 for off or n out of range
	SysFetchLen Word = 15 // () -> remote source length in words
	SysYield    Word = 16 // () -> 0; scheduling hint, no effect on state
)

// file is an immutable virtual file. Contents never change after setup, so
// world snapshots share them.
type file struct {
	Name string
	Data []Word
}

// Request is one scripted client request on a connection: Data becomes
// available to SysRecv at cycle AvailAt.
type Request struct {
	AvailAt int64
	Data    []Word
}

// connScript is an immutable scripted inbound connection.
type connScript struct {
	ArriveAt int64
	Requests []Request
}

// connState is the read cursor of an accepted connection with requests
// left. A connection whose script is exhausted has no state: every recv on
// it reads EOF.
type connState struct {
	fd      Word
	script  *connScript
	reqIdx  int
	readPos int
}

// fdState is one open file descriptor.
type fdState struct {
	fd   Word
	file *file
	pos  int
}

// World is the complete simulated environment. Immutable parts (file
// contents, connection scripts, the fetch source) are shared across clones;
// mutable parts are copied. A world keeps only state that can still change
// — open fds and connections with requests left — so Clone costs the live
// state, not the fds a run has closed or the clients it has served, and
// epoch rollback is exact.
type World struct {
	// Immutable after setup.
	files     map[string]*file
	scripts   []*connScript
	fetchSrc  []Word
	fetchLat  int64
	sigScript map[int][]signalSpec

	// Mutable execution state.
	fds          []fdState   // open fds, by ascending number
	nfds         Word        // fds ever opened; the next fd's number
	conns        []connState // connections with requests left, by ascending fd
	accepted     int         // number of scripts already accepted
	brk          Word
	rng          uint64
	outHash      uint64
	outWords     int64
	pendingFetch map[int]int64 // tid -> cycle at which its fetch completes
	sigCursor    map[int]int   // tid -> next undelivered signal
}

// signalSpec schedules one asynchronous signal: Sig becomes deliverable to
// its thread once simulated time reaches At.
type signalSpec struct {
	At  int64
	Sig Word
}

// heapBase is where SysAlloc allocations start; workloads place static data
// well below it.
const heapBase Word = 1 << 30

// NewWorld returns an empty world with the given PRNG seed.
func NewWorld(seed int64) *World {
	return &World{
		files:        make(map[string]*file),
		sigScript:    make(map[int][]signalSpec),
		brk:          heapBase,
		rng:          uint64(seed)*2862933555777941757 + 3037000493,
		pendingFetch: make(map[int]int64),
		sigCursor:    make(map[int]int),
	}
}

// AddSignal schedules sig for delivery to thread tid once time reaches at.
// Signals for the same thread must be added in ascending time order.
func (w *World) AddSignal(at int64, tid int, sig Word) {
	w.sigScript[tid] = append(w.sigScript[tid], signalSpec{At: at, Sig: sig})
}

// Signal returns tid's next undelivered signal and the time it becomes
// deliverable at, if tid has one left.
func (w *World) Signal(tid int) (sig Word, at int64, ok bool) {
	q, c := w.sigScript[tid], w.sigCursor[tid]
	if c == len(q) {
		return 0, 0, false
	}
	return q[c].Sig, q[c].At, true
}

// TakeSignal consumes and returns tid's next undelivered signal, which
// Signal has just reported. The cursor is mutable world state, so epoch
// rollback re-delivers exactly the signals the adopted execution had not
// yet consumed.
func (w *World) TakeSignal(tid int) Word {
	c := w.sigCursor[tid]
	w.sigCursor[tid] = c + 1
	return w.sigScript[tid][c].Sig
}

// SignalCount reports the total scripted signals.
func (w *World) SignalCount() int {
	n := 0
	for _, q := range w.sigScript {
		n += len(q)
	}
	return n
}

// AddFile registers an immutable file.
func (w *World) AddFile(name string, data []Word) {
	w.files[name] = &file{Name: name, Data: data}
}

// AddConn schedules an inbound connection for the listener.
func (w *World) AddConn(arriveAt int64, reqs []Request) {
	w.scripts = append(w.scripts, &connScript{ArriveAt: arriveAt, Requests: reqs})
}

// SetFetchSource installs the remote resource SysFetch serves, with a fixed
// per-request latency in cycles.
func (w *World) SetFetchSource(data []Word, latency int64) {
	w.fetchSrc = data
	w.fetchLat = latency
}

// Clone copies the mutable state, sharing immutable blobs.
func (w *World) Clone() *World {
	c := &World{
		files:     w.files,
		scripts:   w.scripts,
		fetchSrc:  w.fetchSrc,
		fetchLat:  w.fetchLat,
		sigScript: w.sigScript,

		fds:          slices.Clone(w.fds),
		nfds:         w.nfds,
		conns:        slices.Clone(w.conns),
		accepted:     w.accepted,
		brk:          w.brk,
		rng:          w.rng,
		outHash:      w.outHash,
		outWords:     w.outWords,
		pendingFetch: make(map[int]int64, len(w.pendingFetch)),
		sigCursor:    make(map[int]int, len(w.sigCursor)),
	}
	for k, v := range w.pendingFetch {
		c.pendingFetch[k] = v
	}
	for k, v := range w.sigCursor {
		c.sigCursor[k] = v
	}
	return c
}

// OutputHash returns the running hash of all externally committed output
// (prints, file writes, sends) — the replay fidelity check for output.
func (w *World) OutputHash() uint64 { return w.outHash }

// OutputWords returns the number of words committed externally.
func (w *World) OutputWords() int64 { return w.outWords }

func (w *World) commit(words []Word) {
	for _, v := range words {
		w.outHash ^= (w.outHash << 7) ^ (w.outHash >> 9) ^ (uint64(v) * 0x9e3779b97f4a7c15)
		w.outHash *= 0x2545f4914f6cdd1d
		w.outWords++
	}
}

func (w *World) nextRand() Word {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return Word(w.rng >> 1)
}

// OS adapts a World to the VM's syscall interface.
type OS struct {
	W *World
}

// NewOS wraps a world.
func NewOS(w *World) *OS { return &OS{W: w} }

// Syscall implements vm.SyscallHandler.
func (o *OS) Syscall(m *vm.Machine, t *vm.Thread, num Word, args [6]Word) vm.SysResult {
	w := o.W
	switch num {
	case SysPrint, SysWrite, SysSend:
		// All three are output commits; SysWrite/SysSend take (sink, addr, n)
		// and SysPrint takes (addr, n).
		var addr, n Word
		if num == SysPrint {
			addr, n = args[0], args[1]
		} else {
			addr, n = args[1], args[2]
		}
		if n < 0 || n > 1<<24 {
			return vm.SysResult{Ret: -1}
		}
		words := make([]Word, n)
		for i := range words {
			words[i] = m.Mem.Load(addr + Word(i))
		}
		w.commit(words)
		return vm.SysResult{Ret: n, Cost: n} // cost: copying n words out

	case SysAlloc:
		n := args[0]
		if n < 0 || n > 1<<26 {
			return vm.SysResult{Ret: -1}
		}
		addr := w.brk
		w.brk += n
		return vm.SysResult{Ret: addr}

	case SysTime:
		return vm.SysResult{Ret: m.Now}

	case SysRand:
		return vm.SysResult{Ret: w.nextRand()}

	case SysYield:
		return vm.SysResult{Ret: 0}

	case SysOpen:
		nameAddr, nameLen := args[0], args[1]
		if nameLen < 0 || nameLen > 4096 {
			return vm.SysResult{Ret: -1}
		}
		name := decodeString(m, nameAddr, nameLen)
		f, ok := w.files[name]
		if !ok {
			return vm.SysResult{Ret: -1}
		}
		w.fds = append(w.fds, fdState{fd: w.nfds, file: f})
		w.nfds++
		return vm.SysResult{Ret: w.nfds - 1}

	case SysRead:
		fd, bufAddr, n := args[0], args[1], args[2]
		i, ok := w.fd(fd)
		if !ok || n < 0 {
			return vm.SysResult{Ret: -1}
		}
		s := &w.fds[i]
		avail := len(s.file.Data) - s.pos
		if avail <= 0 {
			return vm.SysResult{Ret: 0}
		}
		if int(n) < avail {
			avail = int(n)
		}
		data := append([]Word(nil), s.file.Data[s.pos:s.pos+avail]...)
		s.pos += avail
		return vm.SysResult{
			Ret:    Word(avail),
			Writes: []vm.MemWrite{{Addr: bufAddr, Data: data}},
		}

	case SysClose:
		i, ok := w.fd(args[0])
		if !ok {
			return vm.SysResult{Ret: -1}
		}
		w.fds = slices.Delete(w.fds, i, i+1)
		return vm.SysResult{Ret: 0}

	case SysFileSize:
		i, ok := w.fd(args[0])
		if !ok {
			return vm.SysResult{Ret: -1}
		}
		return vm.SysResult{Ret: Word(len(w.fds[i].file.Data))}

	case SysListen:
		return vm.SysResult{Ret: 0}

	case SysAccept:
		if w.accepted >= len(w.scripts) {
			return vm.SysResult{Ret: -1} // script exhausted: no more clients ever
		}
		next := w.scripts[w.accepted]
		if next.ArriveAt > m.Now {
			return vm.SysResult{Block: true}
		}
		fd := Word(w.accepted)
		if len(next.Requests) > 0 {
			w.conns = append(w.conns, connState{fd: fd, script: next})
		}
		w.accepted++
		return vm.SysResult{Ret: fd}

	case SysRecv:
		cfd, bufAddr, max := args[0], args[1], args[2]
		i, ok := w.conn(cfd)
		if !ok || max <= 0 {
			return vm.SysResult{Ret: -1}
		}
		if i < 0 {
			return vm.SysResult{Ret: 0} // connection EOF
		}
		c := &w.conns[i]
		req := &c.script.Requests[c.reqIdx]
		if req.AvailAt > m.Now {
			return vm.SysResult{Block: true}
		}
		remain := len(req.Data) - c.readPos
		n := int(max)
		if remain < n {
			n = remain
		}
		data := append([]Word(nil), req.Data[c.readPos:c.readPos+n]...)
		c.readPos += n
		if c.readPos == len(req.Data) {
			c.reqIdx++
			c.readPos = 0
			if c.reqIdx == len(c.script.Requests) {
				w.conns = slices.Delete(w.conns, i, i+1)
			}
		}
		return vm.SysResult{
			Ret:    Word(n),
			Writes: []vm.MemWrite{{Addr: bufAddr, Data: data}},
		}

	case SysFetch:
		off, n, bufAddr := args[0], args[1], args[2]
		if off < 0 || n < 0 || off > Word(len(w.fetchSrc)) {
			return vm.SysResult{Ret: -1}
		}
		ready, pending := w.pendingFetch[t.ID]
		if !pending {
			w.pendingFetch[t.ID] = m.Now + w.fetchLat
			return vm.SysResult{Block: true}
		}
		if m.Now < ready {
			return vm.SysResult{Block: true}
		}
		delete(w.pendingFetch, t.ID)
		end := off + n
		if end > Word(len(w.fetchSrc)) {
			end = Word(len(w.fetchSrc))
		}
		data := append([]Word(nil), w.fetchSrc[off:end]...)
		return vm.SysResult{
			Ret:    Word(len(data)),
			Writes: []vm.MemWrite{{Addr: bufAddr, Data: data}},
		}

	case SysFetchLen:
		return vm.SysResult{Ret: Word(len(w.fetchSrc))}

	default:
		return vm.SysResult{Ret: -1}
	}
}

// fd returns the index in w.fds of open fd, and false when fd is not open.
func (w *World) fd(fd Word) (int, bool) {
	if fd < 0 || fd >= w.nfds {
		return 0, false
	}
	return slices.BinarySearchFunc(w.fds, fd, func(s fdState, fd Word) int { return cmp.Compare(s.fd, fd) })
}

// conn returns the index in w.conns of accepted connection cfd, -1 when
// its script is exhausted, and false when cfd was never accepted.
func (w *World) conn(cfd Word) (int, bool) {
	if cfd < 0 || cfd >= Word(w.accepted) {
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(w.conns, cfd, func(c connState, fd Word) int { return cmp.Compare(c.fd, fd) })
	if !ok {
		return -1, true
	}
	return i, true
}

// decodeString reads a guest string stored one character per word.
func decodeString(m *vm.Machine, addr, n Word) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(m.Mem.Load(addr + Word(i)))
	}
	return string(b)
}

// EncodeString converts a host string to guest words (one char per word),
// for building data segments and requests.
func EncodeString(s string) []Word {
	out := make([]Word, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = Word(s[i])
	}
	return out
}
