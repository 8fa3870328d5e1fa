"""Mostar index of trees.

Computation (a linear subtree-size pass checked against the quadratic
definitional oracle), constructors for the extremal tree families,
index-monotone tree surgeries, exhaustive free-tree enumeration, and a
brute-force verification harness for extremal claims over constrained
tree classes.  Each module's ``__all__`` is its public surface, and the
package re-exports all of them.
"""

# Importing a submodule also binds its name here, as the __all__ below reads.
from .enumeration import *
from .families import *
from .io import *
from .transforms import *
from .tree import *
from .verify import *

__version__ = "0.1.0"

__all__ = [name for module in (tree, families, enumeration, transforms, verify, io)
           for name in module.__all__] + ["__version__"]
