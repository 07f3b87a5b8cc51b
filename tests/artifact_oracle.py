"""Reference for the CSV rendering of a result artifact.

``csv_writer_rendered`` is ``ResultArtifact.rendered("csv")`` as it was
before the body became one format string per artifact: the comment lines,
then the header and every row through ``csv.writer`` (excel dialect,
minimal quoting, CRLF), each cell formatted on its own by ``_format_cell``.

``csv`` before Python 3.11 cannot write a NUL character without an escape
character (it raises ``csv.Error``), so ``CSV_WRITES_NUL`` says whether
this reference can render text that holds one.

The tests compare ``decohere.cli`` against it byte for byte.
"""

from __future__ import annotations

import csv
import io
import sys

from decohere.cli import BUILD_ID, ResultArtifact, _format_cell

CSV_WRITES_NUL = sys.version_info >= (3, 11)


def csv_writer_rendered(artifact: ResultArtifact) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {artifact.config_echo}\r\n")
    buf.write(f"# build: {BUILD_ID}\r\n")
    for note in artifact.comments:
        buf.write(f"# {note}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(artifact.columns)
    for row in artifact.rows:
        writer.writerow([_format_cell(row.get(k)) for k in artifact.columns])
    return buf.getvalue()
