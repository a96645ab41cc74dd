"""Structured check reports with deterministic ordering."""

import hashlib
import json

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Check:
    __slots__ = ("name", "status", "witness", "anchor", "detail")

    def __init__(self, name, status, witness=None, anchor=None, detail=None):
        self.name = name
        self.status = status
        self.witness = witness
        self.anchor = anchor
        self.detail = detail

    @property
    def ok(self):
        return self.status != FAIL

    def as_dict(self):
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = list(self.witness) if isinstance(self.witness, tuple) else self.witness
        if self.anchor is not None:
            d["anchor"] = self.anchor
        if self.detail is not None:
            d["detail"] = self.detail
        return d

    def __repr__(self):
        extra = "" if self.witness is None else " witness=%r" % (self.witness,)
        return "<Check %s: %s%s>" % (self.name, self.status, extra)


class Report:
    """Ordered list of named checks.  A failing scan carries its first
    defect as a witness or detail; a check that compares whole matrices
    (``frobenius-monoidal[...]``, ``commutative[...]`` and the algebra and
    Frobenius object checks) fails with neither."""

    def __init__(self, title, tool="hopfkit", inputs=None):
        self.title = title
        self.tool = tool
        self.inputs = list(inputs or [])
        self.checks = []

    def add(self, name, ok, witness=None, anchor=None, detail=None):
        status = ok if isinstance(ok, str) else (PASS if ok else FAIL)
        check = Check(name, status, witness=witness, anchor=anchor, detail=detail)
        self.checks.append(check)
        return check

    def extend(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(
                Check(prefix + c.name, c.status, witness=c.witness, anchor=c.anchor, detail=c.detail)
            )

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self):
        return {
            "tool": self.tool,
            "title": self.title,
            "inputs": self.inputs,
            "checks": [c.as_dict() for c in self.checks],
            "ok": self.ok,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = ["# %s" % self.title]
        for ref, digest in self.inputs:
            lines.append("input %s sha256=%s" % (ref, digest))
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            line = "%-*s  %s" % (width, c.name, c.status.upper())
            if c.witness is not None:
                line += "  witness=%s" % (c.witness,)
            if c.detail is not None:
                line += "  [%s]" % c.detail
            if c.anchor is not None:
                line += "  (%s)" % c.anchor
            lines.append(line)
        lines.append("result: %s" % ("OK" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        bad = len(self.failures())
        return "<Report %s: %d checks, %s>" % (
            self.title,
            len(self.checks),
            "ok" if not bad else "%d failed" % bad,
        )


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()
