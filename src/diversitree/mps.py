"""MPS reader and writer.

Accepts both fixed and free layouts by tokenizing on whitespace (names with
embedded blanks are not supported). Understands NAME, OBJSENSE, ROWS,
COLUMNS with INTORG/INTEND markers, RHS, RANGES, BOUNDS and ENDATA.

Dialect notes:

* Lines may end in ``\\n``, ``\\r\\n`` or ``\\r``, whatever the input kind;
  a str that holds a line end is MPS text, never a path.
* The first N row is the objective; later N rows are free rows and are
  dropped with a warning.
* An RHS entry on the objective row (an objective constant) is ignored
  with a warning; one on a free row, and a RANGES entry on either, is
  ignored.
* Variables declared between integer markers default to bounds [0, 1]
  (classic MPSX convention); BOUNDS entries override either side.
* OBJSENSE takes MIN, MINIMIZE, MAX or MAXIMIZE, in any case, inline or
  on the next line; any other value is refused, since a typo would change
  the problem. A maximization negates the objective and sets
  ``objective_negated`` on the instance so reports can un-negate.
* A (column, row) pair may have one COLUMNS entry; a repeated one, on the
  objective row too, is refused rather than summed.
* The file is read in one pass and fails at its first fault in file order,
  naming the line. A BOUNDS entry that leaves a column's lower bound above
  its upper is that entry's fault.

The writer emits one row per constraint (RANGES are expanded on ingestion)
with explicit bounds for every variable, so parse(write(instance)) returns
an equal instance (``==``) when the objective holds no zero. It raises a
ValueError, naming the name, for an instance whose names MPS cannot carry:
an empty row or objective name, whitespace in any name, a row or column
name that starts with ``*`` or reads as ``MARKER``, and a row name used
twice (the objective's included).
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
_OBJSENSE = {"MIN": False, "MINIMIZE": False, "MAX": True, "MAXIMIZE": True}
_VALUE = object()  # stands for a BOUNDS entry's value in _BOUNDS
# each bound type's effect on a column's record; the fields it leaves out keep their values
_BOUNDS = {
    "UP": {"upper": _VALUE},
    "LO": {"lower": _VALUE},
    "FX": {"lower": _VALUE, "upper": _VALUE},
    "UI": {"upper": _VALUE, "is_integer": True},
    "LI": {"lower": _VALUE, "is_integer": True},
    "FR": {"lower": -INF, "upper": INF},
    "MI": {"lower": -INF},
    "PL": {"upper": INF},
    "BV": {"lower": 0.0, "upper": 1.0, "is_integer": True},
}


class MpsParseError(ValueError):
    """Parse failure with the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _num(tok: str, line_no: int, finite: bool = True) -> float:
    """The number in ``tok``: never NaN, and finite unless ``finite`` is False."""
    try:
        val = float(tok)
    except ValueError:
        raise MpsParseError(f"expected a number, got {tok!r}", line_no) from None
    if math.isnan(val) or (finite and math.isinf(val)):
        raise MpsParseError(f"expected a finite number, got {tok!r}", line_no)
    return val


def _maximize(tok: str, line_no: int) -> bool:
    """Whether the OBJSENSE value ``tok`` asks for a maximization."""
    try:
        return _OBJSENSE[tok.upper()]
    except KeyError:
        raise MpsParseError(f"unknown OBJSENSE {tok!r}; use MIN or MAX", line_no) from None


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 fails with its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(data[:exc.start + 1].splitlines())  # \n, \r\n and \r end a line
        raise MpsParseError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line_no) from None


def _row_values(toks: list, section: str, line_no: int):
    """The (row, value) pairs of an RHS or RANGES line, after an optional set name."""
    pairs = toks if len(toks) % 2 == 0 else toks[1:]
    if not pairs:
        raise MpsParseError(f"empty {section} entry", line_no)
    for rname, vtok in zip(pairs[0::2], pairs[1::2]):
        yield rname, _num(vtok, line_no)


def parse_mps(source) -> MipInstance:
    """Parse MPS text (str, bytes, file object, or path) into a MipInstance.
    Bytes, and a path's contents, are read as UTF-8."""
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if (isinstance(source, str) and "\n" not in source and "\r" not in source
            and not source.lstrip().startswith("NAME")):
        with open(source, "rb") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    text = _decode(source) if isinstance(source, bytes) else source

    name = ""
    obj_name = None
    obj_sense_max = False
    row_order = []  # constraint row names in declaration order
    row_sense = {}
    free_rows = set()
    columns = {}  # name -> VariableDef fields and "entries", {row: coeff}
    obj_coeffs = {}  # column index -> coeff, in file order
    row_values = {"RHS": {}, "RANGES": {}}  # section -> {row: value}

    section = None
    expect_objsense_value = False
    in_integer_block = False

    line_no = 1  # the line an error names when the input ends early; 1 when it is empty
    # newline=None reads \r\n and \r as \n
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        toks = line.split()
        if not toks or toks[0].startswith("*"):
            continue

        if not line[0].isspace():  # a section header
            key = toks[0].upper()
            if key not in _SECTIONS:
                raise MpsParseError(f"malformed section header {toks[0]!r}", line_no)
            if key == "ENDATA":
                break
            section = "OBJSENSE" if key.startswith("OBJSENSE") else key
            expect_objsense_value = section == "OBJSENSE" and len(toks) == 1
            if key == "NAME":
                name = toks[1] if len(toks) > 1 else ""
            elif section == "OBJSENSE" and len(toks) > 1:
                obj_sense_max = _maximize(toks[1], line_no)
            elif key == "COLUMNS":
                in_integer_block = False
            continue

        if expect_objsense_value:
            obj_sense_max = _maximize(toks[0], line_no)
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
            if col not in columns:
                columns[col] = {
                    "index": len(columns),
                    "lower": 0.0,
                    "upper": 1.0 if in_integer_block else INF,  # classic integer-marker default
                    "is_integer": in_integer_block,
                    "entries": {},
                }
            record = columns[col]
            for rname, vtok in zip(toks[1::2], toks[2::2]):
                val = _num(vtok, line_no)
                if rname == obj_name:
                    entries, key = obj_coeffs, record["index"]
                elif rname in free_rows:
                    continue
                elif rname in row_sense:
                    entries, key = record["entries"], rname
                else:
                    raise MpsParseError(f"entry for undeclared row {rname!r}", line_no)
                if key in entries:
                    raise MpsParseError(f"repeated entry for column {col!r} in row {rname!r}",
                                        line_no)
                entries[key] = val

        elif section in row_values:
            for rname, val in _row_values(toks, section, line_no):
                if rname in row_sense:
                    row_values[section][rname] = val
                elif rname == obj_name and section == "RHS":
                    log.warning("line %d: RHS on the objective row (constant %g) ignored", line_no, val)
                elif rname != obj_name and rname not in free_rows:
                    what = "RHS" if section == "RHS" else "range"
                    raise MpsParseError(f"{what} for undeclared row {rname!r}", line_no)

        elif section == "BOUNDS":
            btype = toks[0].upper()
            if btype not in _BOUNDS:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            effect = _BOUNDS[btype]
            if _VALUE in effect.values():
                if len(toks) not in (3, 4):
                    raise MpsParseError(f"{btype} bound needs a column and a value", line_no)
                col, val = toks[-2], _num(toks[-1], line_no, finite=False)  # an infinite bound is legal
            elif len(toks) < 2:
                raise MpsParseError(f"{btype} bound needs a column", line_no)
            else:
                col = toks[2] if len(toks) >= 3 else toks[1]
            if col not in columns:
                raise MpsParseError(f"bound on undeclared column {col!r}", line_no)
            record = columns[col]
            record.update((field, val if to is _VALUE else to) for field, to in effect.items())
            if record["lower"] > record["upper"]:
                raise MpsParseError(f"bounds for column {col!r} cross (lower > upper)", line_no)

        else:  # NAME or OBJSENSE
            raise MpsParseError("unexpected data line", line_no)

    if not columns:
        raise MpsParseError("no COLUMNS entry declares a column", line_no)

    # one pass over the columns, in index order, so each row's dict is in column order
    variables = []
    row_coeffs = {rname: {} for rname in row_order}
    for col, record in columns.items():
        for rname, val in record.pop("entries").items():
            if val != 0.0:
                row_coeffs[rname][record["index"]] = val
        variables.append(VariableDef(name=col, **record))

    rhs, ranges = row_values["RHS"], row_values["RANGES"]
    constraints = []
    for rname in row_order:
        b, r = rhs.get(rname, 0.0), ranges.get(rname)
        if r is None:
            sides = [(row_sense[rname], b)]
        elif row_sense[rname] == LE:
            sides = [(LE, b), (GE, b - abs(r))]
        elif row_sense[rname] == GE:
            sides = [(GE, b), (LE, b + abs(r))]
        else:  # equality: the sign of the range picks the side that opens up
            sides = [(GE, b), (LE, b + r)] if r >= 0 else [(GE, b + r), (LE, b)]
        # a ranged row's second side is a row of its own
        for (sense, side), cname in zip(sides, (rname, f"{rname}__rng")):
            constraints.append(LinearConstraint(row_coeffs[rname], sense, side, cname))

    return MipInstance(
        name=name,
        variables=variables,
        constraints=constraints,
        objective={j: -v if obj_sense_max else v for j, v in obj_coeffs.items() if v != 0.0},
        objective_name="OBJ" if obj_name is None else obj_name,
        objective_negated=obj_sense_max,
    )


def _check_names(instance: MipInstance):
    """Raise a ValueError naming the first name of ``instance`` that MPS cannot carry."""
    if instance.name.split() not in ([], [instance.name]):
        raise ValueError(f"MPS cannot carry the instance name {instance.name!r}: it holds whitespace")
    rows = [instance.objective_name] + [con.name for con in instance.constraints]
    seen = set()
    for kind, names in (("row", rows), ("column", [v.name for v in instance.variables])):
        for name in names:
            if name.split() != [name]:
                fault = "it is empty or holds whitespace"
            elif name.startswith("*"):
                fault = "its line would read as a comment"
            elif name.strip("'\"") == "MARKER":
                fault = "its line would read as an integer marker"
            elif kind == "row" and name in seen:
                fault = "an earlier row has it"
            else:
                seen.add(name)
                continue
            raise ValueError(f"MPS cannot carry the {kind} name {name!r}: {fault}")


def write_mps(instance: MipInstance) -> str:
    """Serialize an instance as MPS text; inverse of parse_mps up to layout."""
    _check_names(instance)
    sense_char = {GE: "G", LE: "L", EQ: "E"}
    out = [f"NAME          {instance.name}"]
    if instance.objective_negated:
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {instance.objective_name}")
    for con in instance.constraints:
        out.append(f" {sense_char[con.sense]}  {con.name}")

    # column -> [(row name, coefficient)], the objective's first, then in constraint order
    sign = -1.0 if instance.objective_negated else 1.0
    entries = {j: [(instance.objective_name, sign * c)] for j, c in instance.objective.items()}
    for con in instance.constraints:
        for j, a in con.coeffs.items():
            entries.setdefault(j, []).append((con.name, a))
    out.append("COLUMNS")
    markers = 0
    in_int = False
    for v in instance.variables:
        if v.is_integer != in_int:
            in_int = v.is_integer
            out.append(f"    MARKER{markers}  'MARKER'  '{'INTORG' if in_int else 'INTEND'}'")
            markers += 1
        # keep empty columns alive: a zero objective entry declares them
        for rname, a in entries.get(v.index, [(instance.objective_name, 0.0)]):
            out.append(f"    {v.name}  {rname}  {a!r}")
    if in_int:
        out.append(f"    MARKER{markers}  'MARKER'  'INTEND'")

    out.append("RHS")
    for con in instance.constraints:
        if con.rhs != 0.0:
            out.append(f"    RHS  {con.name}  {con.rhs!r}")

    out.append("BOUNDS")
    for v in instance.variables:
        if math.isinf(v.lower) and math.isinf(v.upper):
            out.append(f" FR  BND  {v.name}")
        elif v.lower == v.upper:
            out.append(f" FX  BND  {v.name}  {v.lower!r}")
        else:
            # an integer column starts at [0, 1], so an infinite upper bound takes
            # a PL entry, and a lower bound above 1 comes after the upper one
            lower = [f" MI  BND  {v.name}" if math.isinf(v.lower) else f" LO  BND  {v.name}  {v.lower!r}"]
            if not math.isinf(v.upper):
                upper = [f" UP  BND  {v.name}  {v.upper!r}"]
            else:
                upper = [f" PL  BND  {v.name}"] if v.is_integer else []
            out.extend(upper + lower if v.is_integer and v.lower > 1 else lower + upper)

    out.append("ENDATA")
    return "\n".join(out) + "\n"
