#!/usr/bin/env python3
"""ptrace_sampler.py — a sampling CPU profiler for hosts without `perf`.

Usage:
    scripts/ptrace_sampler.py [--hz N] [--top N] [--drop SUBSTR]... [--callers SUBSTR]...
                              [--per UNIT REGEX] -- CMD [ARG...]

Runs CMD, and about N times a second (default 400) stops each of its
threads that is on a CPU (`PTRACE_SEIZE`, then `PTRACE_INTERRUPT` +
`PTRACE_GETREGS` per sample), walks its frame-pointer chain through
`/proc/<pid>/mem`, and resumes it. When CMD exits, prints two ranked
tables of symbols (from `nm -C` on the executable and `nm -D` on the
shared objects it maps): self time — samples whose innermost frame is
the symbol — and inclusive time — samples with the symbol anywhere on
the stack. A sample with a frame matching a `--drop` substring is
discarded whole.

`--callers SUBSTR` adds a third table per SUBSTR: the immediate callers
of every frame whose symbol contains SUBSTR, ranked by the samples they
appear in as such — who owns a row that the inclusive table shows under
a generic name (`insertion_sort_shift_left`, `quicksort`: which `sort`
call is it?). It reads the stacks already walked, so the limits below
apply: a frame without frame pointers hides its caller, and a sample
that ends at the symbol is counted under `[no caller frame]`.

CMD's stdout is sent to stderr, so stdout carries the tables only.

A share says where the time went, not how much there was: two runs that
did different amounts of work in their seconds have shares that do not
compare. `--per UNIT REGEX` counts the lines of CMD's output that match
REGEX — one per unit of work done, e.g. a benchmark's "pass N:" lines —
and prints each row's samples divided by that count next to its share.

What it can and cannot see:
  * Build CMD with `-Cforce-frame-pointers=yes` (scripts/profile.sh
    does). Code without frame pointers — the prebuilt standard library,
    libc — still shows up as a leaf by its own address, but its caller
    is skipped, because the frame-pointer register still belongs to the
    caller's caller. Generic std code instantiated in the profiled
    crates (`VecDeque::retain`, `HashMap::insert`) is compiled with
    them and attributed correctly.
  * A leaf in a shared object is named from that file's dynamic symbol
    table — installed libraries are stripped of everything else. That
    names what the library exports: `malloc`, `free`, `realloc`. A
    local function has no name left and is shown by its neighbourhood,
    `[libc.so.6 after NAME]`, NAME being the nearest exported function
    below it: glibc's allocator internals (`_int_malloc`, `_int_free`,
    `malloc_consolidate`) follow `__default_morecore`, and the per-CPU
    `memmove` / `memset` / `memcmp` variants that the exported names
    only dispatch to sit together at the end of the text, after
    whatever is exported last. A mapped file `nm` finds nothing in is
    one row, `[basename]`.
  * Inlined functions are charged to the function they were inlined
    into.
  * Only threads in state R are sampled: this is CPU time, not waiting.
  * Stopping a thread costs it tens of microseconds per sample, so
    wall-clock numbers from a profiled run are not benchmark numbers.
  * x86-64 Linux only.
"""

import argparse
import bisect
import collections
import ctypes
import os
import platform
import re
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_O_TRACEEXEC = 0x10
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_STOP = 128
WALL = 0x40000000  # __WALL: wait for threads that are not our children too

MAX_DEPTH = 256

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class UserRegs(ctypes.Structure):
    """`struct user_regs_struct` of x86-64."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in (
            "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax "
            "rip cs eflags rsp ss fs_base gs_base ds es fs gs"
        ).split()
    ]


def ptrace(request, tid, data=None):
    """One ptrace call; False if the thread is gone or refuses."""
    return libc.ptrace(request, tid, None, data) != -1


def on_cpu(pid, tid):
    try:
        with open(f"/proc/{pid}/task/{tid}/stat", "rb") as f:
            # The state letter follows the parenthesised command name.
            return f.read().rpartition(b")")[2].split()[0] == b"R"
    except OSError:
        return False


def text_symbols(path, *nm_flags):
    """Sorted (starts, ends, names) of the functions `nm` lists for `path`; empty if it finds none."""
    listing = subprocess.run(
        ["nm", "-C", "-S", "--defined-only", "-n", *nm_flags, path], capture_output=True, text=True
    ).stdout
    starts, ends, names = [], [], []
    for line in listing.splitlines():
        # "addr [size] kind name"; `nm -S` leaves the size out when it has none.
        m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiI]) (.+)", line)
        if m:
            addr, size, _, name = m.groups()
            starts.append(int(addr, 16))
            ends.append(int(addr, 16) + int(size or "0", 16))
            # Legacy Rust mangling ends in a hash that only splits one function's
            # samples; a dynamic symbol carries its version (`malloc@@GLIBC_2.2.5`).
            names.append(re.sub(r"::h[0-9a-f]{16}$|@.*$", "", name))
    return starts, ends, names


class Symbols:
    """Address -> name: `nm` for the executable, `nm -D` for the shared objects it maps."""

    def __init__(self, pid):
        self.pid = pid
        self.exe = os.path.realpath(f"/proc/{pid}/exe")
        self.tables = {self.exe: text_symbols(self.exe)}
        if not self.tables[self.exe][0]:
            sys.exit(f"ptrace_sampler: nm finds no symbols in {self.exe}")
        self.cache = {}
        self.read_maps()

    def read_maps(self):
        self.maps = []  # (start, end, path)
        self.bases = {}  # path -> address its file offset 0 is (or would be) mapped at
        with open(f"/proc/{self.pid}/maps") as f:
            for line in f:
                parts = line.split(None, 5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5].strip() if len(parts) > 5 else ""
                self.maps.append((lo, hi, path))
                if path.startswith("/"):
                    # A position-independent object sits at a base the kernel
                    # picks; `nm` addresses count from the file's start (its
                    # segments' addresses equal their file offsets, as the
                    # linkers lay shared objects and PIEs out).
                    start = lo - int(parts[2], 16)
                    self.bases[path] = min(self.bases.get(path, start), start)

    def name(self, addr):
        hit = self.cache.get(addr)
        if hit is None:
            hit = self.lookup(addr)
            if hit is None:  # a library mapped since the last look
                self.read_maps()
                hit = self.lookup(addr) or "[unmapped]"
            self.cache[addr] = hit
        return hit

    def lookup(self, addr):
        for lo, hi, path in self.maps:
            if lo <= addr < hi:
                where = f"[{os.path.basename(path) or 'anon'}]"
                if not path.startswith("/"):
                    return where
                if path not in self.tables:
                    # Installed libraries are stripped: the dynamic symbol
                    # table is all there is.
                    self.tables[path] = text_symbols(path, "-D")
                starts, ends, names = self.tables[path]
                at = addr - self.bases[path]
                i = bisect.bisect_right(starts, at) - 1
                if i < 0:
                    return where
                if path == self.exe or at < ends[i]:
                    return names[i]
                # Past the end of the nearest exported function: a local one,
                # whose name went with the stripped `.symtab`. Say which
                # neighbourhood of the library it is in.
                return f"{where[:-1]} after {names[i]}]"
        return None


def walk(mem, regs):
    """Return addresses, innermost first: rip, then the frame-pointer chain."""
    frames = [regs.rip]
    fp = regs.rbp
    while len(frames) < MAX_DEPTH and fp >= regs.rsp and fp % 8 == 0:
        try:
            raw = os.pread(mem, 16, fp)
        except OSError:
            break
        if len(raw) < 16:
            break
        next_fp = int.from_bytes(raw[:8], "little")
        ret = int.from_bytes(raw[8:], "little")
        if ret == 0:
            break
        frames.append(ret)
        if next_fp <= fp:  # frames only ever sit higher up the stack
            break
        fp = next_fp
    return frames


def sample(tid, mem, regs):
    """Stop `tid`, read its stack, resume it. None if it exited or would not stop."""
    if not ptrace(PTRACE_INTERRUPT, tid):
        return None
    while True:
        try:
            _, status = os.waitpid(tid, WALL)
        except ChildProcessError:
            return None
        if not os.WIFSTOPPED(status):
            return None  # exited
        if status >> 16 == PTRACE_EVENT_STOP:
            frames = walk(mem, regs) if ptrace(PTRACE_GETREGS, tid, ctypes.byref(regs)) else None
            ptrace(PTRACE_CONT, tid, 0)
            return frames
        # Something else got there first: let it through (a signal is
        # handed on, another ptrace event just resumed) and keep waiting.
        ptrace(PTRACE_CONT, tid, 0 if status >> 16 else os.WSTOPSIG(status))


def pump(pid):
    """Handle whatever the tracees report between samples; the exit status once `pid` is gone."""
    while True:
        try:
            tid, status = os.waitpid(-1, WALL | os.WNOHANG)
        except ChildProcessError:
            return 0
        if tid == 0:
            return None
        if os.WIFSTOPPED(status):
            # A ptrace event is resumed; a signal is handed on.
            ptrace(PTRACE_CONT, tid, 0 if status >> 16 else os.WSTOPSIG(status))
        elif tid == pid:
            return os.WEXITSTATUS(status) if os.WIFEXITED(status) else 128 + os.WTERMSIG(status)


class Output:
    """CMD's output: handed on to stderr as it comes, lines matching `pattern` counted."""

    def __init__(self, pattern):
        self.read_end, self.write_end = os.pipe()
        os.set_blocking(self.read_end, False)
        self.pattern = re.compile(pattern.encode())
        self.partial = b""
        self.matches = 0

    def pump(self):
        while True:
            try:
                chunk = os.read(self.read_end, 1 << 16)
            except BlockingIOError:
                return
            if not chunk:
                return
            sys.stderr.buffer.write(chunk)
            sys.stderr.buffer.flush()
            *lines, self.partial = (self.partial + chunk).split(b"\n")
            self.matches += sum(1 for line in lines if self.pattern.search(line))


def launch(cmd, output):
    """Fork `cmd`, seized; returns once it is stopped at the end of its `execve`."""
    gate_r, gate_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(gate_w)
        os.read(gate_r, 1)  # until the parent has seized us
        if output:
            os.dup2(output.write_end, 2)
        os.dup2(2, 1)
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(gate_r)
    if output:
        os.close(output.write_end)
    seized = ptrace(PTRACE_SEIZE, pid, PTRACE_O_TRACEEXEC)
    errno = ctypes.get_errno()
    os.close(gate_w)  # end of file releases the child either way
    if not seized:
        os.waitpid(pid, 0)
        sys.exit(f"ptrace_sampler: PTRACE_SEIZE refused: {os.strerror(errno)}")
    while True:
        _, status = os.waitpid(pid, WALL)
        if not os.WIFSTOPPED(status):
            sys.exit(f"ptrace_sampler: could not run {cmd[0]}")
        if status >> 16 == PTRACE_EVENT_EXEC:
            return pid
        ptrace(PTRACE_CONT, pid, 0 if status >> 16 else os.WSTOPSIG(status))


def table(title, counts, total, top, per):
    """`per` is `(unit, how many of them CMD did)`, or None."""
    print(f"\n{title} ({total} samples)")
    per_head = f" {'/' + per[0]:>8}" if per else ""
    print(f"{'samples':>8} {'%':>6}{per_head}  symbol")
    for name, n in counts.most_common(top):
        per_cell = f" {n / per[1]:>8.1f}" if per else ""
        print(f"{n:>8} {100.0 * n / total:>6.2f}{per_cell}  {name}")


def callers_of(stacks, symbol):
    """(callers ranked by samples, samples with `symbol` on the stack) over `stacks`."""
    callers, hits = collections.Counter(), 0
    for names in stacks:
        at = [i for i, name in enumerate(names) if symbol in name]
        if at:
            hits += 1
            # Once per sample; a callee that recurses is not its own caller.
            above = {names[i + 1] if i + 1 < len(names) else "[no caller frame]" for i in at}
            callers.update(name for name in above if symbol not in name)
    return callers, hits


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--hz", type=float, default=400.0)
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--drop", action="append", default=[])
    ap.add_argument("--callers", action="append", default=[], metavar="SUBSTR")
    ap.add_argument("--per", nargs=2, metavar=("UNIT", "REGEX"))
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    if platform.machine() != "x86_64" or sys.platform != "linux":
        sys.exit("ptrace_sampler: x86-64 Linux only")

    output = Output(args.per[1]) if args.per else None
    pid = launch(cmd, output)
    symbols = Symbols(pid)
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    ptrace(PTRACE_CONT, pid, 0)
    seized = {pid}
    regs = UserRegs()
    stacks = []  # one list of symbol names per sample, innermost first
    period = 1.0 / args.hz
    due = time.monotonic()
    while True:
        due += period
        time.sleep(max(0.0, due - time.monotonic()))
        if output:
            output.pump()
        exit_code = pump(pid)
        if exit_code is not None:
            break
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in tids:
            if tid not in seized and ptrace(PTRACE_SEIZE, tid, 0):
                seized.add(tid)
            if tid in seized and on_cpu(pid, tid):
                frames = sample(tid, mem, regs)
                if frames:
                    # Resolved now: the mappings go away with the process.
                    stacks.append([symbols.name(a) for a in frames])
    os.close(mem)
    if output:
        output.pump()  # what it wrote last

    if not stacks:
        sys.exit(f"ptrace_sampler: no samples (command exited {exit_code})")
    self_time, inclusive = collections.Counter(), collections.Counter()
    kept = [names for names in stacks if not any(d in n for d in args.drop for n in names)]
    for names in kept:
        self_time[names[0]] += 1
        inclusive.update(set(names))
    print(f"{len(stacks)} samples at ~{args.hz:g} Hz, {len(stacks) - len(kept)} dropped; command exited {exit_code}")
    per = None
    if output:
        print(f"{output.matches} x {args.per[0]}: the /{args.per[0]} column is samples / {output.matches}")
        per = (args.per[0], output.matches) if output.matches else None
    if kept:
        table("self time", self_time, len(kept), args.top, per)
        table("inclusive time", inclusive, len(kept), args.top, per)
    for symbol in args.callers:
        callers, hits = callers_of(kept, symbol)
        if hits:
            table(f"immediate callers of *{symbol}*", callers, hits, args.top, per)
        else:
            print(f"\nno sample has *{symbol}* on its stack")
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
