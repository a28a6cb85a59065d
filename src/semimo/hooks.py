"""Out-of-process hooks: a command template run on images passed as PGM files."""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from pathlib import Path

from .images import read_pgm, write_pgm

__all__ = ["PgmHook"]


class PgmHook:
    """Shared core of the external operator and metric hooks.

    A subclass sets its ``placeholders``, its ``error`` type and its
    ``timeout`` in seconds. Each ``{name}`` placeholder becomes the
    shell-quoted path of ``name.pgm`` in a fresh temporary directory; other
    braces, such as an awk program's, reach the command unchanged. A command
    that cannot be split or started, times out, exits nonzero or leaves an
    unreadable output image raises ``error``.
    """

    placeholders: tuple[str, ...]
    error: type[Exception]
    timeout: float

    def __init__(self, command_template: str):
        if not all(f"{{{name}}}" in command_template for name in self.placeholders):
            wanted = " and ".join(f"{{{name}}}" for name in self.placeholders)
            raise ValueError(f"command template must contain {wanted}")
        self.command_template = command_template

    def _run(self, images: dict, output: str | None = None):
        """Run on ``images`` (by placeholder); return stdout and the ``output`` image."""
        with tempfile.TemporaryDirectory(prefix="semimo-hook-") as tmp:
            paths = {name: str(Path(tmp) / f"{name}.pgm") for name in self.placeholders}
            for name, image in images.items():
                write_pgm(paths[name], image)
            # Quoted, so a path holding a space stays one argument.
            quoted = {name: shlex.quote(path) for name, path in paths.items()}
            cmd = re.sub(r"\{(\w+)\}", lambda m: quoted.get(m[1], m[0]), self.command_template)
            try:
                proc = subprocess.run(
                    shlex.split(cmd), capture_output=True, text=True, timeout=self.timeout
                )
            except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
                raise self.error(f"external command failed to run: {exc}") from exc
            if proc.returncode != 0:
                raise self.error(
                    f"external command exited {proc.returncode}: {proc.stderr.strip()[:500]}"
                )
            try:
                return proc.stdout, read_pgm(paths[output]) if output else None
            except (OSError, ValueError) as exc:
                raise self.error(f"unusable output image: {exc}") from exc
