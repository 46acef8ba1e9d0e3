"""javaboy: a Game Boy emulator on the Pi (System B).

The kernel is a genuine tiny 8-bit virtual machine: a deterministic
synthetic ROM of simple opcodes (ALU, load/store, conditional jumps)
is executed frame by frame, and each frame's 160x144 tile output is
blitted at the QoS screen magnification (2x/4x/6x — blit cost scales
with the square).  The workload mode is attributed by ROM size
(64 KB / 512 KB / 1 MB), which controls how much of the ROM each
frame's interpreter loop walks.  Time-fixed two-minute run.
"""

from __future__ import annotations

import random
from typing import List

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

RUN_SECONDS = 120.0

#: Emulated frames are batched per simulated second.
_FRAMES_PER_BATCH = 60

#: Native Game Boy screen.
_SCREEN_PIXELS = 160 * 144

_OP_ADD, _OP_SUB, _OP_LD, _OP_ST, _OP_JNZ, _OP_NOP = range(6)


def _gen_rom(size_bytes: int, seed: int) -> List[int]:
    rng = random.Random(seed * 523 + size_bytes)
    # One synthetic instruction per 16 ROM bytes keeps runs fast while
    # the charge model accounts for the full ROM walk.
    return [rng.randrange(6) for _ in range(max(64, size_bytes // 16))]


class _Vm:
    """The 8-bit core: 4 registers, 256 bytes of RAM."""

    def __init__(self, rom: List[int]) -> None:
        self.rom = rom
        self.regs = [0, 1, 2, 3]
        self.ram = [0] * 256
        self.pc = 0

    def run(self, instructions: int) -> int:
        executed = 0
        rom = self.rom
        regs = self.regs
        ram = self.ram
        size = len(rom)
        pc = self.pc
        for _ in range(instructions):
            op = rom[pc]
            if op == _OP_ADD:
                regs[pc & 3] = (regs[pc & 3] + regs[(pc + 1) & 3]) & 0xFF
            elif op == _OP_SUB:
                regs[pc & 3] = (regs[pc & 3] - 1) & 0xFF
            elif op == _OP_LD:
                regs[pc & 3] = ram[regs[(pc + 1) & 3]]
            elif op == _OP_ST:
                ram[regs[(pc + 1) & 3]] = regs[pc & 3]
            elif op == _OP_JNZ and regs[pc & 3] != 0:
                pc = (pc + regs[(pc + 1) & 3]) % size
                executed += 1
                continue
            pc = (pc + 1) % size
            executed += 1
        self.pc = pc
        return executed


class JavaBoy(Workload):
    name = "javaboy"
    description = "emulation"
    systems = ("B",)
    cloc = 6492
    ent_changes = 38

    workload_kind = "ROM size"
    workload_labels = {ES: "64KB", MG: "512KB", FT: "1MB"}
    qos_kind = "screen magnification"
    qos_labels = {ES: "2x", MG: "4x", FT: "6x"}

    # One counted op = one emulated cycle / blitted pixel.
    work_scale = 4.0e-6

    time_fixed = True

    _SIZES = {ES: 64 << 10, MG: 512 << 10, FT: 1 << 20}
    _QOS = {ES: 2.0, MG: 4.0, FT: 6.0}
    _THRESHOLDS = {MG: 128 << 10, FT: 700 << 10}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        rom = _gen_rom(int(size), seed)
        vm = _Vm(rom)
        magnification = max(1.0, float(qos))
        blit_pixels = _SCREEN_PIXELS * magnification * magnification
        start = platform.now()
        frames = 0
        executed = 0
        batches = int(RUN_SECONDS)
        # Per frame the emulator walks a slice of the ROM proportional
        # to its size (bank switching through the whole cartridge).
        per_frame_instr = max(60, len(rom) // 24)
        for _ in range(batches):
            batch_start = platform.now()
            executed += vm.run(per_frame_instr)
            # Charge a full second of emulation: 60 frames of CPU plus
            # the magnified blits.
            self.charge(platform,
                        per_frame_instr * _FRAMES_PER_BATCH * 12.0)
            self.charge(platform, blit_pixels * _FRAMES_PER_BATCH * 0.15)
            frames += _FRAMES_PER_BATCH
            busy = platform.now() - batch_start
            idle = 1.0 - busy
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=frames,
                          detail={"instructions": float(executed),
                                  "magnification": magnification})
