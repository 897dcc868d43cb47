"""The registry the fixture's decorated runner joins."""


class Registry:
    def register(self, name):
        return lambda fn: fn


REGISTRY = Registry()
