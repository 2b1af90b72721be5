#!/usr/bin/env python3
"""Recomputes the exact answers in a workload's query pool with DuckDB.

Usage (from the repository root):

    python3 perfbench/tools/truth.py perfbench/workloads/power-dist          # check
    python3 perfbench/tools/truth.py perfbench/workloads/power-dist --write  # rewrite

The pool (`pool.jsonl.gz`) holds one query per line:

    {"agg": "sum", "col": "x", "conn": "and", "preds": [["y", "<", 1.5], ["z", "=", "a"]],
     "group": null, "truth": 12.0}

`conn` is "and", "or" or "" (one predicate); a literal is a JSON number or
string. A scalar query carries its exact answer in `truth`; a GROUP BY query
(`group` set) carries none. The SQL is written here, with the literals bound
as parameters, so the answers do not depend on how the system under test
prints SQL. DuckDB runs on one thread, so sums are added in the same order
on every run. The check fails when an answer differs by more than a
relative 1e-9 (the rounding of a sum in another order), when a scalar query
matches fewer than 1e-4 of the rows or has no finite answer, or when a GROUP
BY query has no non-null group. Needs the duckdb Python package; the
benchmark run itself does not.
"""

import argparse
import gzip
import json
import math
import os
import sys

import duckdb

MIN_SELECTIVITY = 1e-4
OPS = {"<", "<=", ">", ">=", "=", "<>"}
AGGS = {"count", "sum", "avg", "min", "max", "median", "var_pop"}


def where(q):
    params = []
    conds = []
    for col, op, value in q["preds"]:
        assert op in OPS, op
        conds.append('("%s" %s ?)' % (col, op))
        params.append(value)
    joiner = {"and": " AND ", "or": " OR ", "": ""}[q["conn"]]
    assert q["conn"] or len(conds) == 1
    return " WHERE " + joiner.join(conds), params


def answer(con, q):
    """(rows matching the WHERE, exact answer) of a scalar query; for a GROUP
    BY query, the number of groups with a non-null answer instead of rows."""
    assert q["agg"] in AGGS, q["agg"]
    w, params = where(q)
    agg = 'CAST(%s("%s") AS DOUBLE)' % (q["agg"], q["col"])
    if q["group"] is None:
        rows, value = con.execute("SELECT count(*), %s FROM t%s" % (agg, w), params).fetchone()
        return rows, value
    g = '"%s"' % q["group"]
    res = con.execute("SELECT %s, %s AS r FROM t%s GROUP BY %s" % (g, agg, w, g), params).fetchall()
    return sum(1 for grp, r in res if grp is not None and r is not None), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload_dir")
    ap.add_argument("--write", action="store_true", help="rewrite the answers instead of checking them")
    args = ap.parse_args()

    pool = os.path.join(args.workload_dir, "pool.jsonl.gz")
    with gzip.open(pool, "rt", encoding="utf-8") as fh:
        queries = [json.loads(line) for line in fh]
    con = duckdb.connect()
    con.execute("SET threads = 1")
    con.execute("CREATE TABLE t AS SELECT * FROM read_parquet('%s/data/*.parquet')" % args.workload_dir)
    n = con.execute("SELECT count(*) FROM t").fetchone()[0]
    floor = max(1, int(MIN_SELECTIVITY * n))

    bad = 0
    for k, q in enumerate(queries):
        rows, value = answer(con, q)
        if q["group"] is not None:
            ok = rows > 0
        else:
            ok = rows >= floor and value is not None and math.isfinite(value)
            if args.write:
                q["truth"] = value
            elif not math.isclose(value, q["truth"], rel_tol=1e-9, abs_tol=1e-12):
                ok = False
        if not ok:
            bad += 1
            print("line %d: rows=%s answer=%r %s" % (k + 1, rows, value, json.dumps(q)), file=sys.stderr)

    if args.write and not bad:
        # mtime=0 keeps the file byte-identical when the answers are unchanged.
        with open(pool, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write("".join(json.dumps(q, separators=(",", ":")) + "\n" for q in queries).encode())
    print("%s: %d queries over %d rows, %d bad" % (pool, len(queries), n, bad))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
