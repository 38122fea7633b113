package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/vax"
)

// Table1 demonstrates each row of the paper's Table 1 on a standard
// VAX: privileged machine state reached by unprivileged instructions
// with no trap to kernel-mode software.
func Table1() (*Result, error) {
	r := &Result{
		ID:      "T1",
		Title:   "Sensitive data touched by unprivileged instructions (standard VAX)",
		Headers: []string{"Data item", "Instruction", "Observed"},
	}

	// PSL<CUR>: user-mode MOVPSL reads the mode; CHMS writes it — with
	// zero entries into kernel-mode software.
	mi, err := newMicro(cpu.StandardVAX, `
start:	movpsl r1            ; user mode reads PSL
	chms #0              ; change mode to supervisor: writes PSL<CUR>
	halt
	.align 4
chms:	movpsl r2            ; supervisor handler: proof of the switch
	movl r10, r9         ; kernel entries seen *before* the stop
	halt                 ; deliberate stop (privileged -> kern)
	.align 4
kern:	incl r10             ; counts kernel-software entries
	halt
`, map[vax.Vector]string{vax.VecCHMS: "chms", vax.VecPrivInstr: "kern"})
	if err != nil {
		return nil, err
	}
	mi.c.SetPSL(vax.PSL(0).WithCur(vax.User).WithPrv(vax.User))
	if err := mi.run(1000); err != nil {
		return nil, err
	}
	sawUser := vax.PSL(mi.c.R[1]).Cur() == vax.User
	got := vax.PSL(mi.c.R[2])
	sawSuper := got.Cur() == vax.Supervisor && got.Prv() == vax.User
	noKernel := mi.c.R[9] == 0
	r.addRow("PSL<CUR>", "MOVPSL (read)",
		check(sawUser, "user-mode MOVPSL returned cur=user without trapping"))
	r.addRow("PSL<CUR>", "CHM (read+write)",
		check(sawSuper && noKernel, "CHMS switched user->supervisor with no kernel software involved"))

	// PSL<PRV>: the same PROBE gives different answers depending only
	// on the previous-mode field.
	probeSrc := `
start:	prober #0, #4, @#0x80000a00   ; page 5: KR
	beql no
	movl #1, r3
	halt
no:	clrl r3
	halt
`
	overrides := map[uint32]vax.PTE{5: vax.NewPTE(true, vax.ProtKR, true, mmFrame+5)}
	asKernelPrv, err := newMapped(cpu.StandardVAX, probeSrc, nil, overrides)
	if err != nil {
		return nil, err
	}
	asKernelPrv.c.SetPSL(vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.Kernel))
	if err := asKernelPrv.run(1000); err != nil {
		return nil, err
	}
	asUserPrv, err := newMapped(cpu.StandardVAX, probeSrc, nil, overrides)
	if err != nil {
		return nil, err
	}
	asUserPrv.c.SetPSL(vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.User))
	if err := asUserPrv.run(1000); err != nil {
		return nil, err
	}
	prvMatters := asKernelPrv.c.R[3] == 1 && asUserPrv.c.R[3] == 0
	r.addRow("PSL<PRV>", "PROBE (read)",
		check(prvMatters, "identical PROBER accessible with prv=kernel, inaccessible with prv=user"))
	r.addNote("CHM writes PSL<PRV> and REI reads/writes both fields on the same no-trap paths.")

	// PTE<M>: an unprivileged write sets the modify bit in the page
	// table without any software intervention.
	mw, err := newMapped(cpu.StandardVAX, `
start:	pushl #0x03C00000
	pushl #ucode
	rei
	.align 4
ucode:	movl #1, @#0x80000c00 ; page 6, M initially clear
	chmk #0
	.align 4
chmk:	halt
`, map[vax.Vector]string{vax.VecCHMK: "chmk"},
		map[uint32]vax.PTE{6: vax.NewPTE(true, vax.ProtUW, false, mmFrame+6)})
	if err != nil {
		return nil, err
	}
	if err := mw.run(1000); err != nil {
		return nil, err
	}
	raw, _ := mw.m.LoadLong(mmSPT + 4*6)
	r.addRow("PTE<M>", "any write reference",
		check(vax.PTE(raw).Modified(), "user store set PTE<M> in hardware, zero faults"))

	// PTE<PROT>: PROBE's answer is the protection code.
	pr, err := newMapped(cpu.StandardVAX, `
start:	prober #3, #4, @#0x80000a00   ; KR page, probe as user
	beql denied
	clrl r4
	halt
denied:	movl #1, r4
	probew #3, #4, @#0x80000e00   ; UW page (7), probe as user
	beql bad
	movl #1, r5
bad:	halt
`, nil, map[uint32]vax.PTE{5: vax.NewPTE(true, vax.ProtKR, true, mmFrame+5)})
	if err != nil {
		return nil, err
	}
	if err := pr.run(1000); err != nil {
		return nil, err
	}
	r.addRow("PTE<PROT>", "PROBE (read)",
		check(pr.c.R[4] == 1 && pr.c.R[5] == 1, "PROBE outcome tracked each page's protection code"))
	return r, nil
}

// Table2 contrasts PROBE and PROBEVM on the modified VAX (outside any
// VM), row for row.
func Table2() (*Result, error) {
	r := &Result{
		ID:      "T2",
		Title:   "PROBE versus PROBEVM (modified VAX)",
		Headers: []string{"PROBE", "PROBEVM", "Observed"},
	}
	overrides := map[uint32]vax.PTE{
		5: vax.NewPTE(true, vax.ProtKR, true, mmFrame+5),   // kernel read only
		6: vax.NewPTE(false, vax.ProtUW, false, mmFrame+6), // invalid
		7: vax.NewPTE(true, vax.ProtUW, false, mmFrame+7),  // M clear
		9: vax.NewPTE(true, vax.ProtNA, true, mmFrame+9),   // page after 8: no access
	}
	mi, err := newMapped(cpu.ModifiedVAX, `
start:	prober #3, #4, @#0x80000400   ; UW page 2: works from anywhere
	movpsl r1
	pushl #0x03C00000
	pushl #ucode
	rei
	.align 4
ucode:	probevmr #1, @#0x80000400     ; PROBEVM from user: must fault
	halt
	.align 4
privh:	movl #1, r2          ; privileged-instruction fault observed
	pushl #0             ; rebuild a kernel PSL and continue in kernel
	pushl #kpart
	rei
	.align 4
kpart:	; --- span: structure crossing page 8 (UW) into page 9 (NA) ---
	prober #0, #512, @#0x800011fc ; last byte lands in the NA page
	beql span1
	clrl r3
	brb sp2
span1:	movl #1, r3          ; PROBE saw the inaccessible last byte
sp2:	probevmr #0, @#0x800011fc     ; PROBEVM tests only the named byte
	beql span2
	movl #1, r4          ; accessible: one-byte test
	brb sp3
span2:	clrl r4
sp3:	; --- probe mode capped at executive ---
	prober #0, #4, @#0x80000a00   ; KR page, prv=kernel: accessible
	beql pm1
	movl #1, r5
pm1:	probevmr #0, @#0x80000a00     ; mode floor executive: denied
	bneq pm2
	movl #1, r6
pm2:	; --- validity and modify reporting ---
	probevmr #0, @#0x80000c00     ; invalid page 6: V set
	bvs vset
	clrl r7
	brb vm2
vset:	movl #1, r7
vm2:	probevmw #0, @#0x80000e00     ; unmodified page 7: C set
	bcs cset
	clrl r8
	brb done
cset:	movl #1, r8
done:	halt
`, map[vax.Vector]string{vax.VecPrivInstr: "privh"}, overrides)
	if err != nil {
		return nil, err
	}
	// Give the kernel continuation REI a valid frame: the privh handler
	// pushes a fresh kernel PSL. prv must stay kernel for the probe-mode
	// row.
	if err := mi.run(10000); err != nil {
		return nil, err
	}
	c := mi.c
	r.addRow("unprivileged", "privileged",
		check(c.R[2] == 1, "user-mode PROBEVM took a privileged-instruction fault; PROBE did not"))
	r.addRow("tests first and last byte", "tests only one byte",
		check(c.R[3] == 1 && c.R[4] == 1, "512-byte span: PROBE denied (last byte NA), PROBEVM allowed"))
	r.addRow("probe mode ≤ PSL<PRV>", "probe mode ≤ executive",
		check(c.R[5] == 1 && c.R[6] == 1, "KR page accessible to PROBE at prv=kernel, denied to PROBEVM"))
	r.addRow("tests only protection", "protection, validity, modify",
		check(c.R[7] == 1 && c.R[8] == 1, "PROBEVM reported V on an invalid page, C on an unmodified page"))
	return r, nil
}

// Table3 runs each Table 1 instruction inside a virtual machine and
// reports the resolution path of Table 3.
func Table3() (*Result, error) {
	r := &Result{
		ID:      "T3",
		Title:   "Solutions for sensitive data (inside a VM)",
		Headers: []string{"Data item", "Instruction", "Solution", "Observed"},
	}
	tv, err := newTinyVM(core.Config{}, `
start:	movpsl r1            ; merged in microcode
	movl #3, @#0x80004000 ; page 32: M clear -> modify fault to the VMM
	prober #3, #4, @#0x80004200 ; page 33 shadow PTE invalid -> trap+fill
	pushl #0x03C00000
	pushl #ucode
	rei                  ; trap to the VMM
	.align 4
ucode:	chmk #9              ; trap to the VMM, forwarded to this SCB
	halt
	.align 4
chmk:	addl2 #4, sp
	movl #1, r11
	halt
	.align 4
privh:	halt
`, map[vax.Vector]string{vax.VecCHMK: "chmk", vax.VecPrivInstr: "privh"},
		map[uint32]vax.PTE{
			32: vax.NewPTE(true, vax.ProtUW, false, 32),
			33: vax.NewPTE(true, vax.ProtUW, true, 33),
		})
	if err != nil {
		return nil, err
	}
	defer tv.k.Release()
	// Make page 33's shadow start unfilled by removing it from the
	// identity prefill? It is filled on demand anyway: the guest PTE is
	// valid but the shadow starts null, so the PROBE traps.
	if err := tv.run(100000); err != nil {
		return nil, err
	}
	vm, c := tv.vm, tv.k.CPU
	r.addRow("PSL<CUR>/<PRV>", "CHM", "Trap to the VMM",
		check(vm.Stats.CHMs == 1 && c.R[11] == 1, fmt.Sprintf("%d CHM trap(s), forwarded to the VM's SCB", vm.Stats.CHMs)))
	r.addRow("PSL<CUR>/<PRV>", "REI", "Trap to the VMM",
		check(vm.Stats.REIs >= 1, fmt.Sprintf("%d REI trap(s) emulated in software", vm.Stats.REIs)))
	r.addRow("PSL<CUR>/<PRV>", "MOVPSL", "Compress in µcode",
		check(vax.PSL(c.R[1]).Cur() == vax.Kernel && c.Stats.MOVPSLs >= 1,
			"MOVPSL returned the VM's kernel mode with no VMM trap"))
	r.addRow("PTE<M>", "memory write", "Modify fault",
		check(vm.Stats.ModifyFaults == 1, fmt.Sprintf("%d modify fault(s) absorbed by the VMM", vm.Stats.ModifyFaults)))
	r.addRow("PTE<PROT>", "PROBE", "Trap to the VMM if PTE invalid",
		check(vm.Stats.ProbeFills == 1, fmt.Sprintf("%d PROBE shadow fill(s); later PROBEs complete in microcode", vm.Stats.ProbeFills)))
	return r, nil
}
