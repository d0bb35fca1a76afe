package mem

import (
	"dve/internal/cache"
	"dve/internal/sim"
	"dve/internal/topology"
)

// Refresh and row-hammer modeling. DDR4 devices must receive a refresh
// command every tREFI on average, and each refresh blocks the rank for
// tRFC (Section II: "more frequent memory refresh ... could cause
// performance degradation"). The controller also tracks per-row activation
// counts within a refresh window to flag row-hammer risk (Kim et al., the
// paper's [38]); Dvé mitigates the hammer by routing reads to the replica
// of a hammered row, which the replica directory already does for free.

// Refresh timing for 8Gb DDR4 at normal temperature. A full retention
// period (tREFW, 64 ms) spans 8192 tREFI ticks; each row is refreshed once
// per tREFW, which is therefore the row-hammer accumulation window.
const (
	tREFIns      = 7800.0
	tRFCns       = 350.0
	ticksPerREFW = 8192
)

// RowHammerThreshold is the default per-row activation count within one
// refresh window beyond which the row is flagged (a deliberately low,
// simulation-friendly analogue of the ~50K real-device threshold).
// topology.Config.RowHammerThreshold overrides it per run.
const RowHammerThreshold = 2048

// hammerThreshold returns the active threshold: the config override, or the
// package default.
func (mc *Controller) hammerThreshold() uint32 {
	if t := mc.cfg.RowHammerThreshold; t > 0 {
		return t
	}
	return RowHammerThreshold
}

// EnableRefresh starts periodic refresh on every channel: every tREFI the
// controller stalls all banks of the channel for tRFC and clears the
// row-hammer window counters.
func (mc *Controller) EnableRefresh() {
	if mc.refreshOn {
		return
	}
	mc.refreshOn = true
	// Pre-size each channel's hammer table for the distinct rows the
	// footprint spans on this socket (activations cluster on touched rows,
	// so this is the steady-state population).
	rowHint := 0
	if h := mc.cfg.FootprintHintLines; h > 0 {
		rowHint = h * mc.cfg.LineSizeBytes / mc.cfg.RowBufferBytes / mc.cfg.Sockets
	}
	mc.hammer = make([]cache.LineTable[uint64, uint32], len(mc.channels))
	for i := range mc.hammer {
		mc.hammer[i] = cache.NewLineTable[uint64, uint32](rowHint)
	}
	interval := sim.Cycle(mc.cfg.Cycles(tREFIns))
	blocked := sim.Cycle(mc.cfg.Cycles(tRFCns))
	var tick func()
	tick = func() {
		for ci := range mc.channels {
			ch := mc.channels[ci]
			from := mc.eng.Now()
			until := from + blocked
			for b := range ch.banks {
				if ch.banks[b].nextFree < until {
					ch.banks[b].nextFree = until
				}
				// Refresh closes the row buffers.
				ch.banks[b].hasOpen = false
			}
			if ch.bus < until {
				ch.bus = until
			}
			mc.Refreshes++
		}
		// A full retention window ends: hammer counters restart (each row
		// has been refreshed once). Clear keeps the tables' capacity, so a
		// steady-state window allocates nothing.
		mc.refreshTicks++
		if mc.refreshTicks%ticksPerREFW == 0 {
			for ci := range mc.hammer {
				mc.hammer[ci].Clear()
			}
		}
		mc.eng.ScheduleDaemon(interval, tick)
	}
	mc.eng.ScheduleDaemon(interval, tick)
}

// noteActivate records a row activation for row-hammer tracking. It reports
// whether the row has crossed the hammer threshold in this refresh window.
// The exact-equality crossing fires OnHammer at most once per row per
// refresh window: further activations keep counting but do not re-fire, and
// the window clear in the refresh tick re-arms the row.
func (mc *Controller) noteActivate(ch int, co topology.DRAMCoord) bool {
	if !mc.refreshOn || mc.hammer == nil {
		return false
	}
	cnt, _ := mc.hammer[ch].Put(hammerKey(co))
	*cnt++
	n := *cnt // OnHammer may add rows, which moves cnt
	if n == mc.hammerThreshold() {
		mc.HammeredRows++
		if mc.OnHammer != nil {
			co.Channel = ch
			mc.OnHammer(co)
		}
		return true
	}
	return n > mc.hammerThreshold()
}

// hammerKey identifies a row within its channel.
func hammerKey(co topology.DRAMCoord) uint64 { return uint64(co.Bank)<<48 | co.Row }
