"""One small base for tumax's immutable value classes.

The standard library's record decorator generates and compiles the methods
of each class when its module is imported, and importing it brings in
``inspect``; every process of the CLI would pay for both. These classes
need only a constructor, frozen attributes, equality, a hash and a repr,
so one shared implementation serves them all.
"""

from operator import attrgetter

# Writes one field past the frozen ``__setattr__``. Fields are never written
# through ``self.__dict__``: that would give every instance a dict of its
# own, larger and slower to read than the shared-key attribute storage.
set_field = object.__setattr__


class Record:
    """Frozen value whose fields are the names annotated in its class body.

    A field defaults to the class attribute of the same name, if any.
    Records are equal when they are of the same class with equal fields,
    and equal records hash alike; other attributes of an instance (such as
    a ``cached_property``) take no part in either.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Through the attribute, not the class dict: from Python 3.14 the
        # annotations of a class body are built lazily and the dict holds
        # only the function that builds them. On 3.10 and later the
        # attribute gives the class's own annotations, never a base's.
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields, n = self._fields, len(args)
        if n > len(fields) or (kwargs and not kwargs.keys() <= set(fields[n:])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{fields}; got {n} positional and {list(kwargs)}")
        for f, value in zip(fields, args):
            set_field(self, f, value)
        for f in fields[n:]:
            if f in kwargs:
                set_field(self, f, kwargs[f])
            elif f in self._defaults:
                set_field(self, f, self._defaults[f])
            else:
                raise TypeError(f"{type(self).__name__}() missing field {f!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def to_json_dict(self):
        """The fields by name, in the order the class declares them."""
        return {f: getattr(self, f) for f in self._fields}

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
