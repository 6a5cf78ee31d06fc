package tailbench

import (
	"repro/internal/mem"
	"repro/internal/vm"
)

// WriteThroughFill makes img issue every whole-page write as a stored
// page instead of a seeded one: it generates the page with mem.FillPage
// into a buffer and writes that with vm.VM.Write.
func WriteThroughFill(img *Image) {
	page := make([]byte, mem.PageSize)
	img.writePage = func(v *vm.VM, g vm.GFN, seed uint64) error {
		mem.FillPage(page, seed, 0)
		_, err := v.Write(g, 0, page)
		return err
	}
}
