package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/vax"
)

// pageFlipGuest dirties one of eight data pages on even rounds and
// zeroes it again on odd ones, printing a dot per round: its
// generations share most pages, and pages go back to zero.
const pageFlipGuest = `
start:	movl #200, r10
outer:	movl #300, r11
inner:	sobgtr r11, inner
	blbs r10, odd
	bicl3 #-8, r10, r2
	ashl #9, r2, r2
	addl2 #0x80003000, r2
	movl r10, (r2)       ; even round: dirty a data page
	brb next
odd:	clrl (r2)            ; odd round: that page is zero again
next:	movl #1, r0          ; KCALL console put '.'
	movl #46, r1
	mtpr #0, #201
	sobgtr r10, outer
	halt
`

// addGuest creates one more pre-mapped VM running src in k.
func addGuest(t *testing.T, k *VMM, src string) *VM {
	t.Helper()
	img, prog := guestImage(t, src, nil)
	vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: img,
		StartPC: prog.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vm.SPs[vax.Kernel] = gKSP
	vm.ISP = gISP
	return vm
}

// scanPack is the reference page-run packer: it scans a flat image for
// zero pages, as checkpoints were packed before generations shared
// pages.
func scanPack(img []byte) []byte {
	zero := func(p int) bool { return bytes.Equal(img[p:p+vax.PageSize], zeroPage[:]) }
	var out []byte
	for p := 0; p < len(img); {
		z := zero(p)
		n := vax.PageSize
		for p+n < len(img) && zero(p+n) == z {
			n += vax.PageSize
		}
		h := uint32(n / vax.PageSize)
		if !z {
			h |= 1 << 31
		}
		out = binary.LittleEndian.AppendUint32(out, h)
		if !z {
			out = append(out, img[p:p+n]...)
		}
		p += n
	}
	return out
}

// fullImageStream is the reference encoding of vm's current state: its
// pages and disk sections packed by scanPack from a full memory dump
// and disk copy, the other sections as a capture lays them out.
func fullImageStream(t *testing.T, k *VMM, vm *VM) []byte {
	t.Helper()
	g, err := k.capture(vm, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e, err := ckpt.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.sections() {
		switch s.Kind {
		case ckpt.SecPages:
			var b leBuf
			b.u32(vm.MemSize)
			s.Payload = append(b.b, scanPack(vm.DumpMemory())...)
		case ckpt.SecDevices:
			regs := s.Payload[len(s.Payload)-diskRegsLen:]
			var b leBuf
			b.u32(uint32(len(vm.disk.data())))
			b.b = append(b.b, scanPack(vm.disk.data())...)
			s.Payload = append(b.b, regs...)
		}
		if err := e.Section(s.Kind, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkNewest checkpoints vm now and requires the new generation to
// encode exactly as the full-image reference, at the length it reports
// without encoding.
func checkNewest(t *testing.T, k *VMM, vm *VM) *generation {
	t.Helper()
	if err := k.CheckpointNow(vm); err != nil {
		t.Fatal(err)
	}
	g := vm.checkpointGen(0)
	got, err := g.encode()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.encodedLen(); err != nil || n != len(got) {
		t.Fatalf("%s: encodedLen = %d, %v; the encoding is %d bytes", vm.Name(), n, err, len(got))
	}
	if want := fullImageStream(t, k, vm); !bytes.Equal(got, want) {
		t.Fatalf("%s generation %d: %d-byte encoding differs from the %d-byte full-image stream",
			vm.Name(), vm.ckptSeq, len(got), len(want))
	}
	return g
}

// sharedPages counts the pages two generations hold by the same blob.
func sharedPages(a, b *generation) int {
	n := 0
	for i := range a.pages {
		if a.pages[i] != nil && i < len(b.pages) && a.pages[i] == b.pages[i] {
			n++
		}
	}
	return n
}

// TestGenerationsEncodeAsFullImage runs an E11-shaped machine (a
// watchdog victim, a machine-check victim under a fault plan that also
// poisons generations, and a page-flipping bystander, checkpointed
// every 3 ticks into 6 generations with recovery armed) in short
// slices. After every slice each live VM takes a generation, which
// must encode byte for byte as the stream of a full-image scan of the
// VM at that instant, at the length it reports without encoding. The
// periodic generations left in the rings must re-encode through a
// decode unchanged.
func TestGenerationsEncodeAsFullImage(t *testing.T) {
	// Both victims warm up with a progress event per round, so the ring
	// holds several generations before the first injected death.
	const warmup = `
start:	mtpr #31, #18        ; mask virtual IRQs (no handlers installed)
	movl #6, r8
wout:	movl #4000, r11
warm:	sobgtr r11, warm
	movl #2, r0          ; KCALL console get: progress, no output
	mtpr #0, #201
	sobgtr r8, wout
`
	wdVictim := warmup + `
	movl #3, r0          ; KCALL disk read block 7
	movl #7, r1
	movl #0x5000, r2
	mtpr #0, #201
	movl @#0x80005000, r3
	cmpl r3, #0x1234
	beql done
	movl #0x1234, @#0x80005000
	movl #4, r0          ; KCALL disk write block 7: set the flag
	movl #7, r1
	movl #0x5000, r2
	mtpr #0, #201
spin:	incl r5              ; no progress events: trip the watchdog
	brb spin
done:	halt
`
	mcVictim := warmup + `
	clrl r9
vloop:	movl #2000, r10
slow:	sobgtr r10, slow
	movl #3, r0          ; KCALL disk read block r9
	movl r9, r1
	movl #0x5000, r2
	mtpr #0, #201
	incl r9
	cmpl r9, #8
	blss vloop
	halt
`
	k, wd, _ := bootVM(t, Config{
		Watchdog:        8,
		CheckpointEvery: 3, CheckpointGenerations: 6,
		Recover: true, RecoverBudget: 24,
	}, wdVictim, nil)
	mc := addGuest(t, k, mcVictim)
	by := addGuest(t, k, pageFlipGuest)
	k.AttachFaults(fault.New(4, fault.Config{
		TargetVMs: []int{wd.ID, mc.ID}, PermanentDiskRate: 0.25, CkptCorruptions: 2, Horizon: 40,
	}))
	vms := []*VM{wd, mc, by}
	taken, shared := 0, 0
	for slice := 0; slice < 2000; slice++ {
		live := 0
		for _, vm := range vms {
			if vm.pendingRecover {
				live++
			}
			// Add generations only between the policy's own, and only
			// after progress, as the policy does: a ring full of one
			// stall cannot be recovered from.
			if vm.halted || vm.ckptSeq == 0 || vm.progressSeq == vm.ckptMark {
				continue
			}
			live++
			prev := vm.checkpointGen(0)
			g := checkNewest(t, k, vm)
			taken++
			if prev != nil {
				shared += sharedPages(g, prev)
			}
		}
		if live == 0 && k.CPU.Halted {
			break
		}
		k.Run(2000)
	}
	for _, vm := range vms {
		if h, msg := vm.Halted(); !h || msg != "HALT executed in VM kernel mode" {
			t.Fatalf("%s: halted=%v %q, want a normal HALT", vm.Name(), h, msg)
		}
		for back := 0; back < vm.CheckpointGenerations(); back++ {
			g := vm.checkpointGen(back)
			img, err := g.encode()
			if err != nil {
				t.Fatal(err)
			}
			d, err := decodeGeneration(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("%s generation -%d: %v", vm.Name(), back, err)
			}
			if again, _ := d.encode(); !bytes.Equal(again, img) {
				t.Errorf("%s generation -%d: decode and re-encode changed the stream", vm.Name(), back)
			}
		}
	}
	if wd.Stats.Recoveries == 0 || mc.Stats.Recoveries == 0 || wd.Stats.RecoveryFallbacks+mc.Stats.RecoveryFallbacks == 0 {
		t.Errorf("recoveries wd=%d mc=%d, fallbacks %d: the run restored nothing",
			wd.Stats.Recoveries, mc.Stats.Recoveries, wd.Stats.RecoveryFallbacks+mc.Stats.RecoveryFallbacks)
	}
	if by.Stats.Checkpoints < 20 || shared == 0 {
		t.Errorf("%d generations taken, %d bystander checkpoints, %d pages shared: sharing untested",
			taken, by.Stats.Checkpoints, shared)
	}
}

// TestGenerationZeroedPageIsZeroRun: a page that goes from non-zero
// back to zero must become a nil page, encoding as part of a zero run,
// not stay a literal page of zeros.
func TestGenerationZeroedPageIsZeroRun(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, "start:\tbrb start", nil)
	const page = 0x3000 / vax.PageSize
	k.Run(100)
	if !vm.writePhys(page*vax.PageSize, 0xCAFE) {
		t.Fatal("writePhys failed")
	}
	if g := checkNewest(t, k, vm); g.pages[page] == nil {
		t.Fatal("dirtied page captured as a zero page")
	}
	if !vm.writePhys(page*vax.PageSize, 0) {
		t.Fatal("writePhys failed")
	}
	if g := checkNewest(t, k, vm); g.pages[page] != nil {
		t.Error("page zeroed again is still a literal page")
	}
}

// TestCaptureAfterRestoreOfOlderGeneration rolls a VM back to an older
// generation, then checkpoints it: the new generation, compared page by
// page against a ring whose newest entry holds later memory, must
// encode as the full image and hold the older generation's memory.
func TestCaptureAfterRestoreOfOlderGeneration(t *testing.T) {
	k, vm, _ := bootVM(t, Config{CheckpointGenerations: 4, Recover: true}, pageFlipGuest, nil)
	var mems [][]byte
	for i := 0; i < 3; i++ {
		k.Run(3000)
		checkNewest(t, k, vm)
		mems = append(mems, vm.DumpMemory())
	}
	if bytes.Equal(mems[0], mems[2]) {
		t.Fatal("memory did not change between generations; lengthen the slices")
	}
	k.haltVMCause(vm, "test death", haltWatchdog)
	vm.ckptFallback = 2 // the oldest of the three
	if err := k.RecoverNow(vm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.DumpMemory(), mems[0]) {
		t.Fatal("restore did not bring back the oldest generation's memory")
	}
	g := checkNewest(t, k, vm)
	got := make([]byte, gMemSize)
	copyPages(got, g.pages)
	if !bytes.Equal(got, mems[0]) {
		t.Error("capture after the restore holds the wrong memory")
	}
	k.Run(0)
	if _, msg := vm.Halted(); msg != "HALT executed in VM kernel mode" {
		t.Errorf("restored guest ended %q, want a normal HALT", msg)
	}
}

// TestCheckpointRoundTripIdentity: a stream restored into another
// monitor and checkpointed again reproduces the same bytes, and a
// decoded generation re-encodes to its stream.
func TestCheckpointRoundTripIdentity(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, pageFlipGuest, nil)
	copy(vm.Disk().Image()[3*vax.PageSize:], "durable")
	k.Run(7000)
	img, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}
	g, err := decodeGeneration(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := g.encode(); !bytes.Equal(again, img) {
		t.Error("decode and re-encode changed the stream")
	}
	k2 := New(2<<20, Config{})
	defer k2.Release()
	vm2, err := k2.Restore("copy", img)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := k2.Snapshot(vm2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img2, img) {
		t.Errorf("checkpoint of the restored VM differs: %d vs %d bytes", len(img2), len(img))
	}
}

// TestPoisonedGenerationLeavesSharedBlobs poisons the newest generation
// as tryRecover does under a fault plan. The fallback must restore the
// next generation exactly, and every generation, the poisoned one's
// blobs included, must still encode its original stream and memory.
func TestPoisonedGenerationLeavesSharedBlobs(t *testing.T) {
	k, vm, _ := bootVM(t, Config{CheckpointGenerations: 6, Recover: true, RecoverBudget: 8}, pageFlipGuest, nil)
	var streams, mems [][]byte
	for i := 0; i < 5; i++ {
		k.Run(2500)
		g := checkNewest(t, k, vm)
		img, _ := g.encode()
		streams = append(streams, img)
		mems = append(mems, vm.DumpMemory())
	}
	if sharedPages(vm.checkpointGen(0), vm.checkpointGen(1)) == 0 {
		t.Fatal("the two newest generations share no page; the test would prove nothing")
	}
	inj := fault.New(9, fault.Config{TargetVM: vm.ID, CkptCorruptions: 1})
	k.AttachFaults(inj)
	k.haltVMCause(vm, "test death", haltWatchdog)
	if err := k.RecoverNow(vm); err != nil {
		t.Fatal(err)
	}
	if inj.Stats.CkptCorruptions != 1 || vm.Stats.RecoveryFallbacks != 1 {
		t.Fatalf("poisoned %d, fallbacks %d; want 1 and 1", inj.Stats.CkptCorruptions, vm.Stats.RecoveryFallbacks)
	}
	want, err := decodeGeneration(bytes.NewReader(streams[3]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.DumpMemory(), mems[3]) || vm.regs != want.regs || vm.pc != want.pc {
		t.Error("fallback did not restore the next generation exactly")
	}
	newest := vm.checkpointGen(0)
	diff := 0
	for i := range newest.poisoned {
		if newest.poisoned[i] != streams[4][i] {
			diff++
		}
	}
	if len(newest.poisoned) != len(streams[4]) || diff != 1 {
		t.Errorf("poisoned stream differs from the original in %d bytes, want 1", diff)
	}
	for back := 0; back < 5; back++ {
		g := vm.checkpointGen(back)
		img, err := g.encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, streams[4-back]) {
			t.Errorf("generation -%d no longer encodes its original stream", back)
		}
		d, err := decodeGeneration(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, gMemSize)
		copyPages(got, d.pages)
		if !bytes.Equal(got, mems[4-back]) {
			t.Errorf("generation -%d no longer decodes to its memory", back)
		}
	}
}

// FuzzRestore feeds arbitrary bytes to both restore paths: Restore,
// which builds a new VM, and restoreInPlace over an existing one.
// Neither may panic, and an error must leave the monitor's pages in use
// as they were. A successful Restore's VM is destroyed, which must
// return them too. One monitor serves every input, so an execution
// costs the decode, not a machine's construction.
func FuzzRestore(f *testing.F) {
	k := New(2<<20, Config{})
	f.Cleanup(k.Release)
	vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: []byte("seed page"), DiskBlocks: 4})
	if err != nil {
		f.Fatal(err)
	}
	copy(vm.Disk().Image(), "seed block")
	snap, err := k.Snapshot(vm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte("VAXC junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := k.PagesInUse()
		if got, err := k.Restore("fuzz", data); err != nil {
			if after := k.PagesInUse(); after != before {
				t.Errorf("failed Restore left %d pages in use, was %d", after, before)
			}
		} else {
			k.HaltVM(got, "fuzz done")
			if err := k.DestroyVM(got); err != nil {
				t.Fatal(err)
			}
			if after := k.PagesInUse(); after != before {
				t.Errorf("restored and destroyed VM left %d pages in use, was %d", after, before)
			}
		}
		if err := k.restoreInPlace(vm, data); err != nil {
			if after := k.PagesInUse(); after != before {
				t.Errorf("failed restoreInPlace left %d pages in use, was %d", after, before)
			}
		}
	})
}
