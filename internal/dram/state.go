package dram

import "fmt"

// Checkpoint support. Bank row-buffer contents and occupancy reservations
// determine every later access's latency, so they are captured exactly.

// BankState is the serialized image of one bank.
type BankState struct {
	OpenRow  int64
	NextFree uint64
	BgOwned  bool
}

// ChannelState is the serialized image of one channel bus.
type ChannelState struct {
	BusFree uint64
	BgOwned bool
}

// DRAMState is the serialized image of a DRAM.
type DRAMState struct {
	Banks       [][]BankState
	Chans       []ChannelState
	Stats       Stats
	BankAccess  [][]uint64
	BankRowHits [][]uint64
}

// State captures the memory system.
func (d *DRAM) State() DRAMState {
	st := DRAMState{
		Banks:       make([][]BankState, len(d.banks)),
		Chans:       make([]ChannelState, len(d.chans)),
		Stats:       d.Stats,
		BankAccess:  make([][]uint64, len(d.bankAccess)),
		BankRowHits: make([][]uint64, len(d.bankRowHits)),
	}
	for c, banks := range d.banks {
		st.Banks[c] = make([]BankState, len(banks))
		for i, b := range banks {
			st.Banks[c][i] = BankState{OpenRow: b.openRow, NextFree: b.nextFree, BgOwned: b.bgOwned}
		}
		st.BankAccess[c] = append([]uint64(nil), d.bankAccess[c]...)
		st.BankRowHits[c] = append([]uint64(nil), d.bankRowHits[c]...)
	}
	for c, ch := range d.chans {
		st.Chans[c] = ChannelState{BusFree: ch.busFree, BgOwned: ch.bgOwned}
	}
	return st
}

// SetState restores the memory system in place. Geometry must match the
// live configuration.
func (d *DRAM) SetState(st DRAMState) error {
	if len(st.Banks) != len(d.banks) || len(st.Chans) != len(d.chans) {
		return fmt.Errorf("dram: restore geometry mismatch")
	}
	for c, banks := range st.Banks {
		if len(banks) != len(d.banks[c]) {
			return fmt.Errorf("dram: restore bank-count mismatch on channel %d", c)
		}
		for i, b := range banks {
			d.banks[c][i] = bank{openRow: b.OpenRow, nextFree: b.NextFree, bgOwned: b.BgOwned}
		}
		copy(d.bankAccess[c], st.BankAccess[c])
		copy(d.bankRowHits[c], st.BankRowHits[c])
	}
	for c, ch := range st.Chans {
		d.chans[c] = channel{busFree: ch.BusFree, bgOwned: ch.BgOwned}
	}
	d.Stats = st.Stats
	return nil
}
