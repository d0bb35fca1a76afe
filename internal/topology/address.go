package topology

// Addr is a physical byte address.
type Addr uint64

// Line is a cache-line-aligned address (Addr with the low line-offset bits
// cleared). All coherence structures key on Line.
type Line uint64

// AddrMap decodes physical addresses into machine coordinates: socket,
// channel, bank, and DRAM row. Pages are interleaved round-robin across
// sockets ("memory is allocated using an interleave policy whereby adjacent
// pages are interleaved across memory controllers", Section VI).
type AddrMap struct {
	cfg *Config
}

// NewAddrMap builds an address map for the configuration.
func NewAddrMap(cfg *Config) *AddrMap { return &AddrMap{cfg: cfg} }

// LineOf returns the cache line containing a.
func (m *AddrMap) LineOf(a Addr) Line {
	return Line(uint64(a) &^ uint64(m.cfg.LineSizeBytes-1))
}

// PageOf returns the page number containing a.
func (m *AddrMap) PageOf(a Addr) uint64 {
	return uint64(a) / uint64(m.cfg.PageBytes)
}

// HomeSocket returns the socket whose memory controller owns the address:
// consecutive physical pages interleave between sockets.
func (m *AddrMap) HomeSocket(a Addr) int {
	return int(m.PageOf(a) % uint64(m.cfg.Sockets))
}

// HomeSocketLine is HomeSocket for a line address.
func (m *AddrMap) HomeSocketLine(l Line) int { return m.HomeSocket(Addr(l)) }

// ReplicaPage implements the paper's fixed-function mapping
// f(p) = p/L + 1 - 2*S (Section III, footnote 3): consecutive physical pages
// interleaved between sockets map to a replica page on the other socket while
// retaining the same DRAM-internal (bank, row) mapping. The input and output
// are page numbers.
func (m *AddrMap) ReplicaPage(page uint64) uint64 {
	s := page % uint64(m.cfg.Sockets) // socket of the home page
	// p + 1 - 2*S: even (socket-0) pages map one page up, odd (socket-1)
	// pages map one page down.
	return page + 1 - 2*s
}

// ReplicaAddr maps a physical address to its replica physical address under
// the fixed-function mapping.
func (m *AddrMap) ReplicaAddr(a Addr) Addr {
	page := m.PageOf(a)
	off := uint64(a) % uint64(m.cfg.PageBytes)
	return Addr(m.ReplicaPage(page)*uint64(m.cfg.PageBytes) + off)
}

// ReplicaLine maps a line address to its replica line address.
func (m *AddrMap) ReplicaLine(l Line) Line {
	return Line(m.ReplicaAddr(Addr(l)))
}

// DRAMCoord locates an address within one socket's DRAM.
type DRAMCoord struct {
	Channel int
	Bank    int
	Row     uint64
}

// AdjacentRows returns the DRAM coordinates physically adjacent to co in
// its bank — the row-hammer victim rows (Row-1 and Row+1 on the same
// channel and bank). Row 0 has a single neighbour.
func AdjacentRows(co DRAMCoord) []DRAMCoord {
	out := make([]DRAMCoord, 0, 2)
	if co.Row > 0 {
		out = append(out, DRAMCoord{Channel: co.Channel, Bank: co.Bank, Row: co.Row - 1})
	}
	out = append(out, DRAMCoord{Channel: co.Channel, Bank: co.Bank, Row: co.Row + 1})
	return out
}

// RowLines returns the number of cache lines a DRAM row buffer holds.
func (m *AddrMap) RowLines() int {
	return m.cfg.RowBufferBytes / m.cfg.LineSizeBytes
}

// Decode maps an address to its DRAM coordinates within its home socket.
// The socket selection bit (page interleaving) is stripped first so that
// each socket's DRAM uses its full channel/bank space — otherwise the
// interleave aliases with the bank stripe and half the banks go unused.
// The socket-local stream is then striped across channels at line
// granularity and across banks at row-buffer granularity, giving channel-
// and bank-level parallelism for streaming accesses. Because the
// fixed-function replica map pairs page 2k with page 2k+1, an address and
// its replica decode to identical coordinates on their respective sockets
// (footnote 3: the mapping "retains the same DRAM internal mapping").
func (m *AddrMap) Decode(a Addr) DRAMCoord {
	c := m.cfg
	page := uint64(a) / uint64(c.PageBytes)
	local := page/uint64(c.Sockets)*uint64(c.PageBytes) + uint64(a)%uint64(c.PageBytes)
	line := local / uint64(c.LineSizeBytes)
	ch := 0
	if c.ChannelsPerSkt > 1 {
		ch = int(line % uint64(c.ChannelsPerSkt))
		line /= uint64(c.ChannelsPerSkt)
	}
	rowUnit := uint64(c.RowBufferBytes / c.LineSizeBytes)
	rowIdx := line / rowUnit
	bank := int(rowIdx % uint64(c.BanksPerRank))
	row := rowIdx / uint64(c.BanksPerRank)
	return DRAMCoord{Channel: ch, Bank: bank, Row: row}
}

// Encode is the inverse of Decode: it maps a socket, a DRAM coordinate and
// a line slot within the row buffer back to the (line-aligned) physical
// address of that cell. Row-hammer modeling uses it to turn a victim row
// (an adjacent row of a hammered coordinate) into concrete addresses whose
// reads then consult the fault model. For every address a,
// Encode(HomeSocket(a), Decode(a), slot) enumerates the lines sharing a's
// row, and Decode(Encode(s, co, i)) == co with HomeSocket == s.
func (m *AddrMap) Encode(socket int, co DRAMCoord, lineInRow int) Addr {
	c := m.cfg
	rowUnit := uint64(c.RowBufferBytes / c.LineSizeBytes)
	rowIdx := co.Row*uint64(c.BanksPerRank) + uint64(co.Bank)
	line := rowIdx*rowUnit + uint64(lineInRow)
	if c.ChannelsPerSkt > 1 {
		line = line*uint64(c.ChannelsPerSkt) + uint64(co.Channel)
	}
	local := line * uint64(c.LineSizeBytes)
	page := local / uint64(c.PageBytes)
	off := local % uint64(c.PageBytes)
	return Addr((page*uint64(c.Sockets)+uint64(socket))*uint64(c.PageBytes) + off)
}
