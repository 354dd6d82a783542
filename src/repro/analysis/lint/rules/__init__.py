"""Rule families of the invariant linter.

Importing this package registers every rule with the framework
registry (:mod:`repro.analysis.lint.core`); each module documents the
invariant its family guards and the PR that established it:

* :mod:`~repro.analysis.lint.rules.determinism` — RPL001-RPL006
* :mod:`~repro.analysis.lint.rules.forkshm` — RPL010-RPL012
* :mod:`~repro.analysis.lint.rules.picklable` — RPL020-RPL021
* :mod:`~repro.analysis.lint.rules.asynchygiene` — RPL030
"""

from repro.analysis.lint.rules import (  # noqa: F401 - registration
    asynchygiene,
    determinism,
    forkshm,
    picklable,
)
