"""MPS reader and writer.

Accepts both fixed and free layouts by tokenizing on whitespace (names with
embedded blanks are not supported). Understands NAME, OBJSENSE, ROWS,
COLUMNS with INTORG/INTEND markers, RHS, RANGES, BOUNDS and ENDATA.

Dialect notes:

* The first N row is the objective; later N rows are free rows and are
  dropped with a warning.
* An RHS entry on the objective row (an objective constant) is ignored
  with a warning; one on a free row, and a RANGES entry on either, is
  ignored.
* Variables declared between integer markers default to bounds [0, 1]
  (classic MPSX convention); BOUNDS entries override either side.
* A maximization OBJSENSE negates the objective and sets
  ``objective_negated`` on the instance so reports can un-negate.

The writer emits one row per constraint (RANGES are expanded on ingestion)
with explicit bounds for every variable, so parse(write(instance)) returns
a structurally equal instance.
"""

import io
import logging
import math
import os

from .model import (
    EQ,
    GE,
    INF,
    LE,
    LinearConstraint,
    MipInstance,
    VariableDef,
)

log = logging.getLogger("diversitree.mps")

_SECTIONS = {"NAME", "OBJSENSE", "OBJSENSE:", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_SENSE = {"G": GE, "L": LE, "E": EQ}
_VALUE_BOUNDS = {"UP", "LO", "FX", "UI", "LI"}
_FLAG_BOUNDS = {"FR", "MI", "PL", "BV"}


class MpsParseError(ValueError):
    """Parse failure with the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokens(line: str):
    return line.split()


def _num(tok: str, line_no: int, finite: bool = True) -> float:
    """The number in ``tok``: never NaN, and finite unless ``finite`` is False."""
    try:
        val = float(tok)
    except ValueError:
        raise MpsParseError(f"expected a number, got {tok!r}", line_no) from None
    if math.isnan(val) or (finite and math.isinf(val)):
        raise MpsParseError(f"expected a finite number, got {tok!r}", line_no)
    return val


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 fails with its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MpsParseError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line_no) from None


def parse_mps(source) -> MipInstance:
    """Parse MPS text (str, bytes, file object, or path) into a MipInstance.
    Bytes, and a path's contents, are read as UTF-8."""
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if isinstance(source, bytes):
        text = _decode(source)
    elif isinstance(source, str) and "\n" not in source and not source.lstrip().startswith("NAME"):
        with open(source, "rb") as fh:
            # the newlines a text-mode read translates: \r\n and \r
            text = _decode(fh.read()).replace("\r\n", "\n").replace("\r", "\n")
    elif hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = _decode(text)
    else:
        text = source

    name = ""
    obj_name = None
    obj_sense_max = False
    row_order = []  # constraint row names in declaration order
    row_sense = {}
    free_rows = set()
    col_order = []
    col_integer = {}
    col_entries = {}  # name -> {row: coeff}
    obj_coeffs = {}
    rhs = {}
    ranges = {}
    bounds = []  # (type, col, value, line_no)

    section = None
    expect_objsense_value = False
    in_integer_block = False

    line_no = 1  # the line an error names when the input ends early; 1 when it is empty
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        is_header = not line[0].isspace()

        if is_header:
            toks = _tokens(line)
            key = toks[0].upper()
            if key not in _SECTIONS:
                raise MpsParseError(f"malformed section header {toks[0]!r}", line_no)
            expect_objsense_value = False
            if key == "NAME":
                name = toks[1] if len(toks) > 1 else ""
                section = "NAME"
            elif key.startswith("OBJSENSE"):
                section = "OBJSENSE"
                if len(toks) > 1:
                    obj_sense_max = toks[1].upper().startswith("MAX")
                else:
                    expect_objsense_value = True
            elif key == "ENDATA":
                section = "ENDATA"
                break
            else:
                section = key
                if key == "COLUMNS":
                    in_integer_block = False
            continue

        toks = _tokens(line)
        if section == "OBJSENSE" and expect_objsense_value:
            obj_sense_max = toks[0].upper().startswith("MAX")
            expect_objsense_value = False
            continue
        if section is None:
            raise MpsParseError("data before any section header", line_no)

        if section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS entries need a type and a name", line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rname in row_sense or rname == obj_name or rname in free_rows:
                raise MpsParseError(f"duplicate row name {rname!r}", line_no)
            if rtype == "N":
                if obj_name is None:
                    obj_name = rname
                else:
                    log.warning("line %d: extra free row %r ignored", line_no, rname)
                    free_rows.add(rname)
            elif rtype in _ROW_SENSE:
                row_order.append(rname)
                row_sense[rname] = _ROW_SENSE[rtype]
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)

        elif section == "COLUMNS":
            stripped = [t.strip("'\"") for t in toks]
            if "MARKER" in stripped:
                if "INTORG" in stripped:
                    in_integer_block = True
                elif "INTEND" in stripped:
                    in_integer_block = False
                else:
                    raise MpsParseError("marker line without INTORG/INTEND", line_no)
                continue
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError("COLUMNS entries need a column then row/value pairs", line_no)
            col = toks[0]
            if col not in col_entries:
                col_entries[col] = {}
                col_order.append(col)
                col_integer[col] = in_integer_block
            for rname, vtok in zip(toks[1::2], toks[2::2]):
                val = _num(vtok, line_no)
                if rname == obj_name:
                    obj_coeffs[col] = obj_coeffs.get(col, 0.0) + val
                elif rname in free_rows:
                    continue
                elif rname in row_sense:
                    col_entries[col][rname] = col_entries[col].get(rname, 0.0) + val
                else:
                    raise MpsParseError(f"entry for undeclared row {rname!r}", line_no)

        elif section == "RHS":
            pairs = toks if len(toks) % 2 == 0 else toks[1:]
            if not pairs:
                raise MpsParseError("empty RHS entry", line_no)
            for rname, vtok in zip(pairs[0::2], pairs[1::2]):
                val = _num(vtok, line_no)
                if rname == obj_name:
                    log.warning("line %d: RHS on the objective row (constant %g) ignored", line_no, val)
                    continue
                if rname in free_rows:
                    continue
                if rname not in row_sense:
                    raise MpsParseError(f"RHS for undeclared row {rname!r}", line_no)
                rhs[rname] = val

        elif section == "RANGES":
            pairs = toks if len(toks) % 2 == 0 else toks[1:]
            if not pairs:
                raise MpsParseError("empty RANGES entry", line_no)
            for rname, vtok in zip(pairs[0::2], pairs[1::2]):
                val = _num(vtok, line_no)
                if rname == obj_name or rname in free_rows:
                    continue
                if rname not in row_sense:
                    raise MpsParseError(f"range for undeclared row {rname!r}", line_no)
                ranges[rname] = val

        elif section == "BOUNDS":
            btype = toks[0].upper()
            if btype in _VALUE_BOUNDS:
                if len(toks) == 4:
                    col, vtok = toks[2], toks[3]
                elif len(toks) == 3:
                    col, vtok = toks[1], toks[2]
                else:
                    raise MpsParseError(f"{btype} bound needs a column and a value", line_no)
                val = _num(vtok, line_no, finite=False)  # an infinite bound is legal
            elif btype in _FLAG_BOUNDS:
                if len(toks) < 2:
                    raise MpsParseError(f"{btype} bound needs a column", line_no)
                col = toks[2] if len(toks) >= 3 else toks[1]
                val = None
            else:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            if col not in col_entries:
                raise MpsParseError(f"bound on undeclared column {col!r}", line_no)
            bounds.append((btype, col, val, line_no))

        elif section in ("NAME", "ENDATA"):
            raise MpsParseError("unexpected data line", line_no)

    if not col_order:
        raise MpsParseError("no COLUMNS entry declares a column", line_no)
    if obj_name is None:
        obj_name = "OBJ"

    # Assemble variables with defaults, then apply bounds in file order.
    lower = {}
    upper = {}
    for col in col_order:
        if col_integer[col]:
            lower[col], upper[col] = 0.0, 1.0  # classic integer-marker default
        else:
            lower[col], upper[col] = 0.0, INF
    for btype, col, val, line_no in bounds:
        if btype == "UP":
            upper[col] = val
        elif btype == "LO":
            lower[col] = val
        elif btype == "FX":
            lower[col] = upper[col] = val
        elif btype == "FR":
            lower[col], upper[col] = -INF, INF
        elif btype == "MI":
            lower[col] = -INF
        elif btype == "PL":
            upper[col] = INF
        elif btype == "BV":
            lower[col], upper[col] = 0.0, 1.0
            col_integer[col] = True
        elif btype == "UI":
            upper[col] = val
            col_integer[col] = True
        elif btype == "LI":
            lower[col] = val
            col_integer[col] = True
        if lower[col] > upper[col]:
            raise MpsParseError(f"bounds for column {col!r} cross (lower > upper)", line_no)

    variables = [
        VariableDef(
            index=i,
            lower=lower[col],
            upper=upper[col],
            is_integer=col_integer[col],
            name=col,
        )
        for i, col in enumerate(col_order)
    ]
    col_pos = {col: i for i, col in enumerate(col_order)}

    # one pass over the columns, in index order, so each row's dict is in column order
    row_coeffs = {rname: {} for rname in row_order}
    for j, col in enumerate(col_order):
        for rname, val in col_entries[col].items():
            if val != 0.0:
                row_coeffs[rname][j] = val

    constraints = []
    for rname in row_order:
        coeffs = row_coeffs[rname]
        b = rhs.get(rname, 0.0)
        sense = row_sense[rname]
        constraints.append(LinearConstraint(coeffs=coeffs, sense=sense, rhs=b, name=rname))
        if rname in ranges:
            r = ranges[rname]
            if sense == LE:
                other = LinearConstraint(coeffs=coeffs, sense=GE, rhs=b - abs(r), name=f"{rname}__rng")
            elif sense == GE:
                other = LinearConstraint(coeffs=coeffs, sense=LE, rhs=b + abs(r), name=f"{rname}__rng")
            else:  # equality: sign of r picks the side that opens up
                lo, hi = (b, b + r) if r >= 0 else (b + r, b)
                constraints[-1] = LinearConstraint(coeffs=coeffs, sense=GE, rhs=lo, name=rname)
                other = LinearConstraint(coeffs=coeffs, sense=LE, rhs=hi, name=f"{rname}__rng")
            constraints.append(other)

    objective = {col_pos[c]: v for c, v in obj_coeffs.items() if v != 0.0}
    if obj_sense_max:
        objective = {j: -v for j, v in objective.items()}

    return MipInstance(
        name=name,
        variables=variables,
        constraints=constraints,
        objective=objective,
        objective_name=obj_name,
        objective_negated=obj_sense_max,
    )


def write_mps(instance: MipInstance) -> str:
    """Serialize an instance as MPS text; inverse of parse_mps up to layout."""
    sense_char = {GE: "G", LE: "L", EQ: "E"}
    out = [f"NAME          {instance.name}"]
    if instance.objective_negated:
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {instance.objective_name}")
    for con in instance.constraints:
        out.append(f" {sense_char[con.sense]}  {con.name}")

    sign = -1.0 if instance.objective_negated else 1.0
    entries = {}  # column -> [(row name, coefficient)] in constraint order
    for con in instance.constraints:
        for j, a in con.coeffs.items():
            entries.setdefault(j, []).append((con.name, a))
    out.append("COLUMNS")
    marker_count = 0
    in_int = False
    for v in instance.variables:
        if v.is_integer and not in_int:
            out.append(f"    MARKER{marker_count}  'MARKER'  'INTORG'")
            marker_count += 1
            in_int = True
        elif not v.is_integer and in_int:
            out.append(f"    MARKER{marker_count}  'MARKER'  'INTEND'")
            marker_count += 1
            in_int = False
        wrote = False
        if v.index in instance.objective:
            out.append(f"    {v.name}  {instance.objective_name}  {sign * instance.objective[v.index]!r}")
            wrote = True
        for rname, a in entries.get(v.index, ()):
            out.append(f"    {v.name}  {rname}  {a!r}")
            wrote = True
        if not wrote:
            # keep empty columns alive: a zero objective entry declares them
            out.append(f"    {v.name}  {instance.objective_name}  0.0")
    if in_int:
        out.append(f"    MARKER{marker_count}  'MARKER'  'INTEND'")

    out.append("RHS")
    for con in instance.constraints:
        if con.rhs != 0.0:
            out.append(f"    RHS  {con.name}  {con.rhs!r}")

    out.append("BOUNDS")
    for v in instance.variables:
        if math.isinf(v.lower) and math.isinf(v.upper):
            out.append(f" FR  BND  {v.name}")
            continue
        if math.isinf(v.lower):
            out.append(f" MI  BND  {v.name}")
        elif v.lower == v.upper:
            out.append(f" FX  BND  {v.name}  {v.lower!r}")
            continue
        else:
            out.append(f" LO  BND  {v.name}  {v.lower!r}")
        if not math.isinf(v.upper):
            out.append(f" UP  BND  {v.name}  {v.upper!r}")

    out.append("ENDATA")
    return "\n".join(out) + "\n"
