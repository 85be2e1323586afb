"""Content-addressed on-disk store for suite results.

Reports are keyed by the SHA-256 of their canonical JSON encoding, so
storing the same report twice is a no-op and two runs agree exactly when
their stored ids agree.
"""

from __future__ import annotations

import hashlib
import json
import os

from .jsonio import canonical_json

ID_LENGTH = 16


def result_hash(report_dict: dict) -> str:
    """Stable id of a suite report; timing fields do not participate."""
    digest = hashlib.sha256(canonical_json(report_dict).encode("utf-8"))
    return digest.hexdigest()[:ID_LENGTH]


class Catalog:
    """Directory layout: <root>/results/<id>.json."""

    def __init__(self, root: str):
        self.root = root
        self.results_dir = os.path.join(root, "results")
        os.makedirs(self.results_dir, exist_ok=True)

    def put_result(self, report_dict: dict) -> str:
        doc_id = result_hash(report_dict)
        path = os.path.join(self.results_dir, doc_id + ".json")
        if not os.path.exists(path):
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(report_dict, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        return doc_id
