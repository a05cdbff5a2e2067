"""Exception hierarchy.

Three families matter for the CLI exit status: input/validation problems
(exit 2), scope problems, i.e. requests the tool refuses on principle,
such as enumerating an infinite resonance set without a cap (exit 3), and
certificate failures, i.e. a proven bound or identity that the exact
re-check found violated (exit 4).  A certificate failure is a defect in
nfkit, never a problem with the input; the checks run under ``python -O``
too, since they are ordinary raises rather than ``assert`` statements.
"""


class NFKitError(Exception):
    code = "error"
    exit_code = 1


class InputError(NFKitError):
    code = "input-error"
    exit_code = 2


class ScopeError(NFKitError):
    code = "scope-error"
    exit_code = 3


class CertificateFailure(NFKitError):
    code = "certificate-failure"
    exit_code = 4


class DimensionMismatch(InputError):
    code = "dimension-mismatch"


class RankMismatch(InputError):
    code = "rank-mismatch"


class NilpotentViolatesCommutation(InputError):
    code = "nilpotent-violates-commutation"


class GcdNotOne(InputError):
    code = "gcd-not-one"


class ZeroEigenvalue(InputError):
    code = "zero-eigenvalue"


class LinearPartMismatch(InputError):
    code = "linear-part-mismatch"


class NotPDNF(InputError):
    code = "not-pdnf"


class NotFreeModuleShape(InputError):
    code = "not-free-module-shape"


class RewriteFailure(InputError):
    code = "rewrite-failure"


class WrongShape(InputError):
    code = "wrong-shape"


class NotNormalizerPair(InputError):
    code = "not-normalizer-pair"


class ZeroSemisimplePart(InputError):
    code = "zero-semisimple-part"


class InfiniteResonance(ScopeError):
    code = "infinite-resonance"


class InfiniteResonanceWithoutCap(ScopeError):
    code = "infinite-resonance-without-cap"


class SearchCapReached(ScopeError):
    """The Hilbert-basis completion passed its work limit before finishing.

    The message names the degree reached, the work, the limit and the open
    candidates; ``partial``, printed by the CLI, holds the solutions so far.
    """

    code = "search-cap-reached"

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = partial

