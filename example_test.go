package pageforgesim_test

import (
	"bytes"
	"fmt"
	"strings"

	pageforgesim "repro"
)

// ExampleNewKSMScanner merges the duplicate pages of two VMs with the
// software KSM engine.
func ExampleNewKSMScanner() {
	hv := pageforgesim.NewHypervisor(64 * 4096)
	content := bytes.Repeat([]byte{7}, 4096)
	for i := 0; i < 2; i++ {
		v := hv.NewVM(2 * 4096)
		v.Madvise(0, 2, true)
		v.Write(0, 0, content)                                  // duplicate across VMs
		v.Write(1, 0, bytes.Repeat([]byte{byte(10 + i)}, 4096)) // unique
	}
	scanner := pageforgesim.NewKSMScanner(hv)
	scanner.RunToSteadyState(10)
	fmt.Println("frames for 4 guest pages:", hv.Phys.AllocatedFrames())
	// Output: frames for 4 guest pages: 3
}

// ExampleEngine drives the PageForge hardware through the paper's Table 1
// interface: one Scan Table batch comparing a candidate against one page.
func ExampleEngine() {
	hv := pageforgesim.NewHypervisor(64 * 4096)
	v := hv.NewVM(2 * 4096)
	content := bytes.Repeat([]byte{42}, 4096)
	v.Write(0, 0, content)
	v.Write(1, 0, content)
	cand, _ := v.Resolve(0)
	other, _ := v.Resolve(1)

	engine := pageforgesim.NewEngine(hv)
	engine.InsertPPN(0, other, pageforgesim.InvalidIndex, pageforgesim.InvalidIndex)
	engine.InsertPFE(cand, true, 0) // Last Refill set: finish the ECC key
	engine.Trigger(0)

	info := engine.GetPFEInfo(engine.DoneAt())
	fmt.Println("scanned:", info.Scanned, "duplicate:", info.Duplicate, "hash ready:", info.HashReady)
	// Output: scanned: true duplicate: true hash ready: true
}

// ExampleECCPageKey shows the ECC-based hash key next to its cost: four
// sampled lines (256B) instead of KSM's 1KB jhash input.
func ExampleECCPageKey() {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	key := pageforgesim.ECCPageKey(page, pageforgesim.DefaultKeyOffsets)
	same := key == pageforgesim.ECCPageKey(page, pageforgesim.DefaultKeyOffsets)
	fmt.Printf("32-bit key from 256B of page data; deterministic: %v\n", same)
	// Output: 32-bit key from 256B of page data; deterministic: true
}

// ExampleExperiments regenerates Table 5 through the experiment registry,
// as `pageforge run -exp table5` does, on one application of the
// scaled-down suite.
func ExampleExperiments() {
	suite := pageforgesim.NewFastSuite()
	suite.Apps = suite.Apps[:1]
	table5, err := pageforgesim.Experiments().Select("table5")
	if err != nil {
		panic(err)
	}
	arts, err := table5[0].Run(suite)
	if err != nil {
		panic(err)
	}
	title, _, _ := strings.Cut(arts[0].Text, "\n")
	fmt.Println(arts[0].Key+":", title)
	// Output: table5: Table 5: PageForge design characteristics
}
