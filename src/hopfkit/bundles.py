"""Text bundle files for Hopf algebras, inclusions, and modules.

One scalar per entry line keeps fixtures diffable.  Scalars are rendered as
"p/q" or sums of "p/q*z^k" with z the primitive root of unity of the
conductor declared in the header.
"""

import os

from .errors import BundleParseError
from .exact_math import Cyclotomic, Matrix, format_scalar, parse_scalar
from .hopf_core import FinHopf


def serialize_hopf(H):
    lines = ["hopf-bundle v1", "name %s" % H.name, "dim %d" % H.dim, "conductor %d" % H.N]
    if H.convention:
        lines.append("convention %s" % H.convention)
    lines.append("labels %s" % ",".join(H.basis_labels))
    n = H.dim
    lines.append("BEGIN MULT")
    for i in range(n):
        for j in range(n):
            for k, s in H.mult[i * n + j]:
                lines.append("%d %d %d %s" % (i, j, k, format_scalar(Cyclotomic(H.N, s))))
    lines.append("END")
    lines.append("BEGIN COMULT")
    for i in range(n):
        for x, s in H.comult[i]:
            lines.append("%d %d %d %s" % (i, x // n, x % n, format_scalar(Cyclotomic(H.N, s))))
    lines.append("END")
    lines.append("BEGIN UNIT")
    for i, s in enumerate(H.unit):
        c = Cyclotomic(H.N, s)
        if not c.is_zero():
            lines.append("%d %s" % (i, format_scalar(c)))
    lines.append("END")
    lines.append("BEGIN COUNIT")
    for i, s in enumerate(H.counit):
        c = Cyclotomic(H.N, s)
        if not c.is_zero():
            lines.append("%d %s" % (i, format_scalar(c)))
    lines.append("END")
    lines.append("BEGIN ANTIPODE")
    for j, col in enumerate(H.antipode_cols):
        for i, s in col:
            lines.append("%d %d %s" % (i, j, format_scalar(Cyclotomic(H.N, s))))
    lines.append("END")
    return "\n".join(lines) + "\n"


# Largest dim a bundle may declare, checked before any table is allocated.
# The builtins reach 343 (u_q(sl2) at l = 7); the axiom scans are cubic in dim.
MAX_DIM = 512
# Largest conductor: scalars carry phi(conductor) coefficients.
MAX_CONDUCTOR = 10000


class _Parser:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.at = 0
        self.header_lines = {}
        # scalar text -> parsed Cyclotomic, shared by all sections of the
        # bundle, which declares one conductor; Cyclotomic values are immutable
        self.scalars = {}

    def peek(self):
        while self.at < len(self.lines):
            line = self.lines[self.at].strip()
            if line and not line.startswith("#"):
                return line
            self.at += 1
        return None

    def next(self):
        line = self.peek()
        if line is None:
            raise BundleParseError("unexpected end of file", self.at + 1)
        self.at += 1
        return line

    def error(self, msg, line=None):
        raise BundleParseError(msg, self.at if line is None else line)


def _parse_header(p, kind):
    first = p.next()
    if first != "%s v1" % kind:
        p.error("expected '%s v1' header, got %r" % (kind, first))
    fields = {}
    while True:
        line = p.peek()
        if line is None or line.startswith("BEGIN "):
            break
        p.next()
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
        p.header_lines[key] = p.at
    return fields


def _int_field(p, fields, key, default, upper):
    """Header field ``key`` as an integer in 1..upper; errors name its line."""
    raw = fields.get(key, default)
    line = p.header_lines.get(key, p.at)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        p.error("header must declare an integer %s" % key, line)
    if not 1 <= value <= upper:
        p.error("%s must be between 1 and %d, got %d" % (key, upper, value), line)
    return value


def _parse_sections(p):
    """{section name: [(line number, entry line)]}; each name appears once."""
    sections = {}
    while p.peek() is not None:
        line = p.next()
        if not line.startswith("BEGIN "):
            p.error("expected BEGIN <section>, got %r" % line)
        name = line[6:].strip()
        if name in sections:
            p.error("duplicate section %s" % name)
        entries = sections[name] = []
        while True:
            row = p.next()
            if row == "END":
                break
            entries.append((p.at, row))
    return sections


def _entries(p, sections, name, bounds, N):
    """(indices, scalar) for each entry line of a section.  Index i must lie
    in 0..bounds[i]-1 and no index tuple may appear twice."""
    nidx = len(bounds)
    seen = set()
    for lineno, line in sections[name]:
        parts = line.split(None, nidx)
        if len(parts) != nidx + 1:
            p.error("expected %d indices and a scalar: %r" % (nidx, line), lineno)
        try:
            idxs = tuple(int(x) for x in parts[:nidx])
        except ValueError:
            p.error("bad index in %r" % line, lineno)
        if not all(0 <= i < b for i, b in zip(idxs, bounds)):
            p.error("index out of range in %r" % line, lineno)
        if idxs in seen:
            p.error("duplicate entry %s in section %s" % (" ".join(map(str, idxs)), name), lineno)
        seen.add(idxs)
        text = parts[nidx]
        val = p.scalars.get(text)
        if val is None:
            try:
                val = p.scalars[text] = parse_scalar(text, N)
            except (ValueError, ZeroDivisionError) as e:
                p.error("bad scalar in %r (%s)" % (line, e), lineno)
        yield idxs, val


def parse_hopf(text):
    p = _Parser(text)
    fields = _parse_header(p, "hopf-bundle")
    dim = _int_field(p, fields, "dim", None, MAX_DIM)
    N = _int_field(p, fields, "conductor", "1", MAX_CONDUCTOR)
    name = fields.get("name", "H")
    labels = fields.get("labels")
    labels = labels.split(",") if labels else ["e%d" % i for i in range(dim)]
    if len(labels) != dim:
        p.error("label count does not match dim", p.header_lines.get("labels"))
    sections = _parse_sections(p)
    for required in ("MULT", "COMULT", "UNIT", "COUNIT", "ANTIPODE"):
        if required not in sections:
            p.error("missing section %s" % required)

    mult = dict(_entries(p, sections, "MULT", (dim, dim, dim), N))
    comult = dict(_entries(p, sections, "COMULT", (dim, dim, dim), N))
    unit = [Cyclotomic.rational(0, N)] * dim
    for (i,), val in _entries(p, sections, "UNIT", (dim,), N):
        unit[i] = val
    counit = [Cyclotomic.rational(0, N)] * dim
    for (i,), val in _entries(p, sections, "COUNIT", (dim,), N):
        counit[i] = val
    srows = [[Cyclotomic.rational(0, N)] * dim for _ in range(dim)]
    for (i, j), val in _entries(p, sections, "ANTIPODE", (dim, dim), N):
        srows[i][j] = val
    S = Matrix.from_rows(srows)
    return FinHopf.from_tensors(
        name, labels, mult, unit, comult, counit, S, conductor=N,
        convention=fields.get("convention", ""),
    )


def serialize_inclusion(incl, sub_ref, big_ref):
    lines = ["hopf-inclusion v1", "sub %s" % sub_ref, "big %s" % big_ref,
             "conductor %d" % incl.N, "BEGIN EMBED"]
    for i in range(incl.H.dim):
        for b in range(incl.K.dim):
            c = incl.embed.entry(i, b)
            if not c.is_zero():
                lines.append("%d %d %s" % (i, b, format_scalar(c)))
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_inclusion(text, resolver):
    """resolver maps a 'sub'/'big' reference string to a FinHopf."""
    from .extension import HopfInclusion

    p = _Parser(text)
    fields = _parse_header(p, "hopf-inclusion")
    for key in ("sub", "big"):
        if key not in fields:
            p.error("missing %r reference" % key)
    sub = resolver(fields["sub"])
    big = resolver(fields["big"])
    N = _int_field(p, fields, "conductor", str(max(sub.N, big.N)), MAX_CONDUCTOR)
    sections = _parse_sections(p)
    if "EMBED" not in sections:
        p.error("missing EMBED section")
    rows = [[Cyclotomic.rational(0, N)] * sub.dim for _ in range(big.dim)]
    for (i, b), val in _entries(p, sections, "EMBED", (big.dim, sub.dim), N):
        rows[i][b] = val
    return HopfInclusion(sub, big, Matrix.from_rows(rows))


def serialize_module(mod, over_ref, coaction=None):
    lines = ["hopf-module v1", "over %s" % over_ref, "dim %d" % mod.dim,
             "conductor %d" % mod.N, "name %s" % mod.name]
    for i in range(mod.H.dim):
        lines.append("BEGIN ACTION %d" % i)
        A = mod.action[i]
        for r in range(mod.dim):
            for c in range(mod.dim):
                v = A.entry(r, c)
                if not v.is_zero():
                    lines.append("%d %d %s" % (r, c, format_scalar(v)))
        lines.append("END")
    if coaction is not None:
        lines.append("BEGIN COACTION")
        for r in range(coaction.rows):
            for c in range(coaction.cols):
                v = coaction.entry(r, c)
                if not v.is_zero():
                    lines.append("%d %d %s" % (r, c, format_scalar(v)))
        lines.append("END")
    return "\n".join(lines) + "\n"


def parse_module(text, resolver):
    from .module_theory import HModule
    from .yetter_drinfeld import YDModule

    p = _Parser(text)
    fields = _parse_header(p, "hopf-module")
    if "over" not in fields:
        p.error("missing 'over' reference")
    H = resolver(fields["over"])
    dim = _int_field(p, fields, "dim", None, MAX_DIM)
    N = _int_field(p, fields, "conductor", str(H.N), MAX_CONDUCTOR)
    name = fields.get("name", "V")

    # one ACTION <i> section per basis element of H, plus optional COACTION
    sections = _parse_sections(p)
    mats = []
    for i in range(H.dim):
        key = "ACTION %d" % i
        if key not in sections:
            p.error("missing section %r" % key)
        rows = [[Cyclotomic.rational(0, N)] * dim for _ in range(dim)]
        for (r, c), val in _entries(p, sections, key, (dim, dim), N):
            rows[r][c] = val
        mats.append(Matrix.from_rows(rows))
    mod = HModule(H, mats, name=name, N=N)
    if "COACTION" in sections:
        rows = [[Cyclotomic.rational(0, N)] * dim for _ in range(H.dim * dim)]
        for (r, c), val in _entries(p, sections, "COACTION", (H.dim * dim, dim), N):
            rows[r][c] = val
        return YDModule(mod, Matrix.from_rows(rows), name=name)
    return mod


def load_text(path):
    if not os.path.exists(path):
        raise BundleParseError("no such file: %s" % path)
    try:
        with open(path, "r") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise BundleParseError("cannot read %s (%s)" % (path, e)) from None
