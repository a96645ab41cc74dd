"""Text bundle files for Hopf algebras, inclusions, and modules.

One scalar per entry line keeps fixtures diffable.  Scalars are rendered as
"p/q" or sums of "p/q*z^k" with z the primitive root of unity of the
conductor declared in the header.
"""

import locale
import os
import re
from itertools import chain
from math import prod

from . import _kernel as K
from .errors import BundleParseError
from .exact_math import Matrix, format_raw, parse_scalar
from .hopf_core import FinHopf


def _texts(scalars):
    """The text of each distinct raw scalar among ``scalars``, each formatted
    once, as ``_Parser.scalars`` parses each distinct text once."""
    distinct = set(scalars)
    return dict(zip(distinct, map(format_raw, distinct)))


def serialize_hopf(H):
    lines = ["hopf-bundle v1", "name %s" % H.name, "dim %d" % H.dim, "conductor %d" % H.N]
    if H.convention:
        lines.append("convention %s" % H.convention)
    lines.append("labels %s" % ",".join(H.basis_labels))
    n = H.dim
    text = _texts(chain(H.unit, H.counit, (s for table in (H.mult, H.comult, H.antipode_cols)
                                            for row in table for _, s in row)))
    lines.append("BEGIN MULT")
    for i in range(n):
        for j in range(n):
            for k, s in H.mult[i * n + j]:
                lines.append("%d %d %d %s" % (i, j, k, text[s]))
    lines.append("END")
    lines.append("BEGIN COMULT")
    for i in range(n):
        for x, s in H.comult[i]:
            lines.append("%d %d %d %s" % (i, x // n, x % n, text[s]))
    lines.append("END")
    for section, vec in (("UNIT", H.unit), ("COUNIT", H.counit)):
        lines.append("BEGIN %s" % section)
        lines.extend("%d %s" % (i, text[s]) for i, s in enumerate(vec) if not K.s_is_zero(s))
        lines.append("END")
    lines.append("BEGIN ANTIPODE")
    for j, col in enumerate(H.antipode_cols):
        for i, s in col:
            lines.append("%d %d %s" % (i, j, text[s]))
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
        # index in lines of the next line to read: a line that is neither
        # blank nor a comment, or len(lines).  It is also the number of the
        # line before it, which errors found between lines name.
        self.pos = 0
        self.header_lines = {}
        # section name -> (start, stop): lines[start:stop] are its entry lines
        self.sections = {}
        # scalar text -> raw scalar, or None for zero; shared by all sections
        # of the bundle, which declares one conductor
        self.scalars = {}
        # (bound, stride) -> {index text: index * stride}, shared by the
        # index positions of every section that have that bound and stride
        self.terms = {}

    def error(self, msg, line=None):
        raise BundleParseError(msg, self.pos if line is None else line)


def _parse_header(p, kind):
    fields = {}
    header = None
    p.pos = len(p.lines)
    for at, line in enumerate(map(str.strip, p.lines)):
        if not line or line[0] == "#":
            continue
        if header is None:
            header = line
            if line != "%s v1" % kind:
                p.error("expected '%s v1' header, got %r" % (kind, line), at + 1)
        elif line.startswith("BEGIN "):
            p.pos = at
            break
        else:
            key, _, value = line.partition(" ")
            fields[key] = value.strip()
            p.header_lines[key] = at + 1
    if header is None:
        p.error("unexpected end of file", len(p.lines) + 1)
    return fields


def _int_field(p, fields, key, default, upper):
    """Header field ``key`` as an integer in 1..upper; errors name its line."""
    raw = fields.get(key, default)
    line = p.header_lines.get(key, p.pos)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        p.error("header must declare an integer %s" % key, line)
    if not 1 <= value <= upper:
        p.error("%s must be between 1 and %d, got %d" % (key, upper, value), line)
    return value


def _parse_sections(p):
    """Record the line range of each section in p.sections; each name appears once."""
    lines = p.lines
    name = None
    for at in range(p.pos, len(lines)):
        line = lines[at]
        # inside a section only a line that holds END can end it
        if name is not None and "END" not in line:
            continue
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if name is None:
            if not line.startswith("BEGIN "):
                p.error("expected BEGIN <section>, got %r" % line, at + 1)
            name = line[6:].strip()
            if name in p.sections:
                p.error("duplicate section %s" % name, at + 1)
            start = at + 1
        elif line == "END":
            p.sections[name] = (start, at)
            name = None
    p.pos = len(p.lines)
    if name is not None:
        p.error("unexpected end of file", p.pos + 1)


def _index(p, at, parts, bounds, strides, terms):
    """The flat index of entry line ``at``, split into ``parts``, whose index
    texts are not all in ``terms`` yet: every index is decoded before any is
    checked against its bound, and each text is then put into ``terms``."""
    try:
        idxs = tuple(map(int, parts[:len(bounds)]))
    except ValueError:
        p.error("bad index in %r" % p.lines[at].strip(), at + 1)
    for i, b in zip(idxs, bounds):
        if not 0 <= i < b:
            p.error("index out of range in %r" % p.lines[at].strip(), at + 1)
    for i, stride, term, text in zip(idxs, strides, terms, parts):
        term[text] = i * stride
    return sum(i * stride for i, stride in zip(idxs, strides))


def _entries(p, name, bounds, strides, N, width):
    """The rows of a section of entry lines "i_1 ... i_m scalar", each a
    sorted tuple of (key, raw scalar) pairs: an entry whose scalar is not
    zero goes into row x // width with key x % width, for x the flat index
    i_1 * strides[0] + ... + i_m * strides[m-1] of (i_1, ..., i_m) in the
    box ``bounds``, whose strides number it in some order of its axes.
    Index i_t must lie in 0..bounds[t]-1 and no index tuple may appear
    twice, zero entries included.  Every empty row is the one empty tuple.

    ``terms[t]`` maps each index text read at position t to its term
    i_t * strides[t] of x.  It starts as {str(i): i * stride}, the texts
    the writers put there, and is shared by every section with that bound
    and stride.  A line that does not split into m texts of ``terms`` and
    a scalar text is checked as ``str.split`` reads it: a blank or comment
    line is skipped, then the token count is tested and ``_index`` decodes
    the indices.  While each x exceeds the one before, no x can repeat
    and the rows fill in order; from the first x that does not, every x is
    checked against a set of the keys read, and the rows are sorted at the
    end.  A scalar text is parsed on its first line, after that test."""
    nidx = len(bounds)
    size = prod(bounds)
    start, stop = p.sections[name]
    terms = []
    for key in zip(bounds, strides):
        if key not in p.terms:
            p.terms[key] = {str(i): i * key[1] for i in range(key[0])}
        terms.append(p.terms[key])
    t0, t1, t2 = terms + [None] * (3 - nidx)
    # the (key, scalar) pairs of the entries in runs of one row each: the
    # run (r, s) in runs holds pairs[s:] up to the next run, all of row r,
    # and lo is r * width for the row r of the last run
    pairs = []
    add = pairs.append
    runs = []
    lo = -width
    zeros = []
    seen = None
    # the largest x read, and from the first drop on above every x
    last = -1
    scalars = p.scalars
    lines = p.lines
    for at in range(start, stop):
        parts = lines[at].split(None, nidx)
        try:
            if nidx == 3:
                i, j, k, text = parts
                x = t0[i] + t1[j] + t2[k]
            elif nidx == 2:
                i, j, text = parts
                x = t0[i] + t1[j]
            else:
                i, text = parts
                x = t0[i]
        except (ValueError, KeyError):
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != nidx + 1:
                p.error("expected %d indices and a scalar: %r" % (nidx, lines[at].strip()), at + 1)
            x = _index(p, at, parts, bounds, strides, terms)
            text = parts[nidx]
        if x > last:
            last = x
        else:
            if seen is None:
                ends = [s for _, s in runs[1:]] + [len(pairs)]
                seen = {r * width + c for (r, s), e in zip(runs, ends) for c, _ in pairs[s:e]}
                seen.update(zeros)
                last = size
            if x in seen:
                idxs = (x // stride % b for stride, b in zip(strides, bounds))
                p.error("duplicate entry %s in section %s" % (" ".join(map(str, idxs)), name),
                        at + 1)
            seen.add(x)
        try:
            val = scalars[text]
        except KeyError:
            try:
                val = parse_scalar(text, N)
            except (ValueError, ZeroDivisionError) as e:
                p.error("bad scalar in %r (%s)" % (lines[at].strip(), e), at + 1)
            val = scalars[text] = None if val.is_zero() else val.data
        if val is None:
            zeros.append(x)
            continue
        c = x - lo
        if not 0 <= c < width:
            r, c = divmod(x, width)
            lo = x - c
            runs.append((r, len(pairs)))
        add((c, val))
    # one tuple of all pairs, sliced into the rows: a list per row would
    # double the containers the garbage collector walks while they are built
    pairs = tuple(pairs)
    ends = [s for _, s in runs[1:]] + [len(pairs)]
    rows = [()] * (size // width)
    if seen is None:
        for (r, s), e in zip(runs, ends):
            rows[r] = pairs[s:e]
    else:
        unsorted = {}
        for (r, s), e in zip(runs, ends):
            unsorted.setdefault(r, []).extend(pairs[s:e])
        for r, row in unsorted.items():
            rows[r] = tuple(sorted(row))
    return tuple(rows)


def parse_hopf(text):
    """The FinHopf of a hopf-bundle text; entry lines go straight into its tables."""
    p = _Parser(text)
    fields = _parse_header(p, "hopf-bundle")
    n = _int_field(p, fields, "dim", None, MAX_DIM)
    N = _int_field(p, fields, "conductor", "1", MAX_CONDUCTOR)
    name = fields.get("name", "H")
    labels = fields.get("labels")
    labels = labels.split(",") if labels else ["e%d" % i for i in range(n)]
    if len(labels) != n:
        p.error("label count does not match dim", p.header_lines.get("labels"))
    _parse_sections(p)
    for required in ("MULT", "COMULT", "UNIT", "COUNIT", "ANTIPODE"):
        if required not in p.sections:
            p.error("missing section %s" % required)

    mult = _entries(p, "MULT", (n, n, n), (n * n, n, 1), N, n)
    comult = _entries(p, "COMULT", (n, n, n), (n * n, n, 1), N, n * n)
    zero = K.s_zero(K.make_ctx(N))
    unit = tuple(row[0][1] if row else zero for row in _entries(p, "UNIT", (n,), (1,), N, 1))
    counit = tuple(row[0][1] if row else zero for row in _entries(p, "COUNIT", (n,), (1,), N, 1))
    # an entry "i j s" puts s*e_i into the column S(e_j), and the columns
    # are written in turn: its flat index is j*n + i
    cols = _entries(p, "ANTIPODE", (n, n), (1, n), N, n)
    return FinHopf(name, labels, N, mult, unit, comult, counit, cols,
                   convention=fields.get("convention", ""))


def _matrix(p, name, rows, cols, N):
    """The rows x cols matrix of a section of (row, column, scalar) entries."""
    rows = _entries(p, name, (rows, cols), (cols, 1), N, cols)
    return Matrix.from_sparse(N, cols, list(map(dict, rows)))


def _entry_lines(M):
    """"r c scalar" for each nonzero entry of the Matrix M, row by row."""
    text = _texts(s for row in M.srows for s in row.values())
    return ["%d %d %s" % (r, c, text[s])
            for r, row in enumerate(M.srows) for c, s in sorted(row.items())]


def serialize_inclusion(incl, sub_ref, big_ref):
    lines = ["hopf-inclusion v1", "sub %s" % sub_ref, "big %s" % big_ref,
             "conductor %d" % incl.N, "BEGIN EMBED", *_entry_lines(incl.embed), "END"]
    return "\n".join(lines) + "\n"


def parse_inclusion(text, resolver):
    """resolver maps a 'sub'/'big' reference string to a FinHopf.  The
    command line resolves them with ``cli.resolve_hopf``, so a relative path
    is read from the working directory, not from the directory of the
    inclusion bundle."""
    from .extension import HopfInclusion

    p = _Parser(text)
    fields = _parse_header(p, "hopf-inclusion")
    for key in ("sub", "big"):
        if key not in fields:
            p.error("missing %r reference" % key)
    sub = resolver(fields["sub"])
    big = resolver(fields["big"])
    N = _int_field(p, fields, "conductor", str(max(sub.N, big.N)), MAX_CONDUCTOR)
    _parse_sections(p)
    if "EMBED" not in p.sections:
        p.error("missing EMBED section")
    return HopfInclusion(sub, big, _matrix(p, "EMBED", big.dim, sub.dim, N))


def serialize_module(mod, over_ref):
    from .yetter_drinfeld import YDModule

    lines = ["hopf-module v1", "over %s" % over_ref, "dim %d" % mod.dim,
             "conductor %d" % mod.N, "name %s" % mod.name]
    for i in range(mod.H.dim):
        lines += ["BEGIN ACTION %d" % i, *_entry_lines(mod.action[i]), "END"]
    if isinstance(mod, YDModule):
        lines += ["BEGIN COACTION", *_entry_lines(mod.coaction), "END"]
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
    _parse_sections(p)
    mats = []
    for i in range(H.dim):
        key = "ACTION %d" % i
        if key not in p.sections:
            p.error("missing section %r" % key)
        mats.append(_matrix(p, key, dim, dim, N))
    mod = HModule(H, mats, name=name, N=N)
    if "COACTION" in p.sections:
        return YDModule(mod, _matrix(p, "COACTION", H.dim * dim, dim, N))
    return mod


# the line boundaries of str.splitlines, which _Parser splits on
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def bundle_header(text):
    """The header line the parsers read: the first line of text that is
    neither blank nor a comment, stripped ("" if there is none).  Lines are
    split only as far as that line."""
    start = 0
    while True:
        brk = _LINE_BREAK.search(text, start)
        line = text[start:brk.start() if brk else len(text)].strip()
        if line and line[0] != "#":
            return line
        if brk is None:
            return ""
        start = brk.end()


def read_bundle(path):
    """The bytes of a bundle file and their text, from one read."""
    if not os.path.exists(path):
        raise BundleParseError("no such file: %s" % path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data, data.decode(locale.getpreferredencoding(False))
    except (OSError, UnicodeDecodeError) as e:
        raise BundleParseError("cannot read %s (%s)" % (path, e)) from None
