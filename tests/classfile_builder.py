"""Minimal JVM class-file assembler used to synthesize test fixtures.

Builds structurally valid .class bytes (constant pool, fields, methods,
Code attributes) without a JDK. Only what the tests need is supported.
"""
from __future__ import annotations

import io
import struct
import zipfile

ACC_PUBLIC = 0x0001
ACC_STATIC = 0x0008
ACC_SUPER = 0x0020
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400

TAG_UTF8 = 1
TAG_INTEGER = 3
TAG_FLOAT = 4
TAG_LONG = 5
TAG_DOUBLE = 6
TAG_CLASS = 7
TAG_STRING = 8
TAG_FIELDREF = 9
TAG_METHODREF = 10
TAG_IMETHODREF = 11
TAG_NAT = 12
TAG_METHODHANDLE = 15
TAG_METHODTYPE = 16
TAG_DYNAMIC = 17
TAG_INVOKEDYNAMIC = 18


class ClassBuilder:
    """Assembles one class file. Pool indices are handed out on demand."""

    def __init__(self, name, super_name="java/lang/Object", version=(52, 0),
                 access=ACC_PUBLIC | ACC_SUPER):
        self._entries = []  # (tag, payload) tuples; None marks a Long/Double high slot
        self._lookup = {}
        self.major, self.minor = version
        self.access = access
        self.this_index = self.cls(name)
        self.super_index = self.cls(super_name) if super_name else 0
        self.interfaces = []
        self.fields = []   # (access, name_idx, desc_idx, n_attrs, attributes bytes)
        self.methods = []  # (access, name_idx, desc_idx, attributes bytes)

    # -- constant pool ----------------------------------------------------
    def _add(self, tag, payload, wide=False):
        key = (tag, payload)
        if key in self._lookup:
            return self._lookup[key]
        self._entries.append((tag, payload))
        index = len(self._entries)  # 1-based
        if wide:
            self._entries.append(None)
        self._lookup[key] = index
        return index

    def utf8(self, text):
        return self._add(TAG_UTF8, text)

    def cls(self, internal_name):
        return self._add(TAG_CLASS, self.utf8(internal_name))

    def nat(self, name, desc):
        return self._add(TAG_NAT, (self.utf8(name), self.utf8(desc)))

    def methodref(self, cls_name, name, desc):
        return self._add(TAG_METHODREF, (self.cls(cls_name), self.nat(name, desc)))

    def imethodref(self, cls_name, name, desc):
        return self._add(TAG_IMETHODREF, (self.cls(cls_name), self.nat(name, desc)))

    def fieldref(self, cls_name, name, desc):
        return self._add(TAG_FIELDREF, (self.cls(cls_name), self.nat(name, desc)))

    def integer(self, value):
        return self._add(TAG_INTEGER, value)

    def long(self, value):
        return self._add(TAG_LONG, value, wide=True)

    def double(self, value):
        return self._add(TAG_DOUBLE, value, wide=True)

    def string(self, text):
        return self._add(TAG_STRING, self.utf8(text))

    def methodtype(self, desc):
        return self._add(TAG_METHODTYPE, self.utf8(desc))

    def methodhandle(self, ref_kind, ref_index):
        return self._add(TAG_METHODHANDLE, (ref_kind, ref_index))

    def invokedynamic(self, name, desc, bootstrap_index=0):
        return self._add(TAG_INVOKEDYNAMIC, (bootstrap_index, self.nat(name, desc)))

    # -- members -----------------------------------------------------------
    def add_interface(self, internal_name):
        self.interfaces.append(self.cls(internal_name))

    def _attributes(self, attributes):
        """(name, bytes) pairs as attribute_info structures."""
        return b"".join(struct.pack(">HI", self.utf8(name), len(body)) + body
                        for name, body in attributes)

    def add_field(self, name, desc, access=ACC_PUBLIC, attributes=()):
        self.fields.append((access, self.utf8(name), self.utf8(desc), len(attributes),
                            self._attributes(attributes)))

    def add_method(self, name, desc, code=None, access=ACC_PUBLIC,
                   max_stack=8, max_locals=8, exception_table=(),
                   extra_code_attributes=(), attributes=()):
        """code may be a Code helper, raw bytes, or None (abstract/native).

        ``attributes`` are further (name, bytes) method attributes written
        after the Code attribute.
        """
        attrs = b""
        if code is not None:
            body = bytes(code.code) if isinstance(code, Code) else bytes(code)
            payload = io.BytesIO()
            payload.write(struct.pack(">HH", max_stack, max_locals))
            payload.write(struct.pack(">I", len(body)))
            payload.write(body)
            payload.write(struct.pack(">H", len(exception_table)))
            for start, end, handler, catch_type in exception_table:
                catch_idx = self.cls(catch_type) if catch_type else 0
                payload.write(struct.pack(">HHHH", start, end, handler, catch_idx))
            payload.write(struct.pack(">H", len(extra_code_attributes)))
            for attr_name, attr_bytes in extra_code_attributes:
                payload.write(struct.pack(">HI", self.utf8(attr_name), len(attr_bytes)))
                payload.write(attr_bytes)
            blob = payload.getvalue()
            attrs = struct.pack(">HI", self.utf8("Code"), len(blob)) + blob
            n_attrs = 1
        else:
            n_attrs = 0
        attrs += self._attributes(attributes)
        n_attrs += len(attributes)
        self.methods.append((access, self.utf8(name), self.utf8(desc), n_attrs, attrs))

    def code(self):
        return Code(self)

    # -- serialization ------------------------------------------------------
    def _pool_bytes(self):
        out = io.BytesIO()
        for entry in self._entries:
            if entry is None:
                continue  # high half of Long/Double
            tag, payload = entry
            out.write(struct.pack(">B", tag))
            if tag == TAG_UTF8:
                raw = payload.encode("utf-8")
                out.write(struct.pack(">H", len(raw)) + raw)
            elif tag == TAG_INTEGER:
                out.write(struct.pack(">i", payload))
            elif tag == TAG_FLOAT:
                out.write(struct.pack(">f", payload))
            elif tag == TAG_LONG:
                out.write(struct.pack(">q", payload))
            elif tag == TAG_DOUBLE:
                out.write(struct.pack(">d", payload))
            elif tag in (TAG_CLASS, TAG_STRING, TAG_METHODTYPE):
                out.write(struct.pack(">H", payload))
            elif tag == TAG_METHODHANDLE:
                out.write(struct.pack(">BH", payload[0], payload[1]))
            else:  # two u2 halves: refs, NameAndType, InvokeDynamic, Dynamic
                out.write(struct.pack(">HH", payload[0], payload[1]))
        return out.getvalue()

    def build(self):
        out = io.BytesIO()
        out.write(struct.pack(">IHH", 0xCAFEBABE, self.minor, self.major))
        pool = self._pool_bytes()
        out.write(struct.pack(">H", len(self._entries) + 1))
        out.write(pool)
        out.write(struct.pack(">HHH", self.access, self.this_index, self.super_index))
        out.write(struct.pack(">H", len(self.interfaces)))
        for idx in self.interfaces:
            out.write(struct.pack(">H", idx))
        out.write(struct.pack(">H", len(self.fields)))
        for access, name_idx, desc_idx, n_attrs, attrs in self.fields:
            out.write(struct.pack(">HHHH", access, name_idx, desc_idx, n_attrs))
            out.write(attrs)
        out.write(struct.pack(">H", len(self.methods)))
        for access, name_idx, desc_idx, n_attrs, attrs in self.methods:
            out.write(struct.pack(">HHHH", access, name_idx, desc_idx, n_attrs))
            out.write(attrs)
        out.write(struct.pack(">H", 0))  # class attributes
        return out.getvalue()


class Code:
    """Tiny bytecode assembler; tracks offsets so switch padding is exact."""

    def __init__(self, builder):
        self.b = builder
        self.code = bytearray()

    def raw(self, data):
        self.code.extend(data)
        return self

    def op(self, opcode, *operand_bytes):
        self.code.append(opcode)
        self.code.extend(operand_bytes)
        return self

    def _u2(self, opcode, index):
        self.code.append(opcode)
        self.code.extend(struct.pack(">H", index))
        return self

    def aload(self, n):
        if n <= 3:
            return self.op(0x2A + n)
        return self.op(0x19, n)

    def iconst(self, n):
        return self.op(0x03 + n)  # iconst_0..5

    def bipush(self, v):
        return self.op(0x10, v)

    def sipush(self, v):
        self.code.append(0x11)
        self.code.extend(struct.pack(">h", v))
        return self

    def dup(self):
        return self.op(0x59)

    def pop(self):
        return self.op(0x57)

    def return_(self):
        return self.op(0xB1)

    def areturn(self):
        return self.op(0xB0)

    def athrow(self):
        return self.op(0xBF)

    def invokevirtual(self, cls, name, desc):
        return self._u2(0xB6, self.b.methodref(cls, name, desc))

    def invokespecial(self, cls, name, desc, interface=False):
        ref = self.b.imethodref if interface else self.b.methodref
        return self._u2(0xB7, ref(cls, name, desc))

    def invokestatic(self, cls, name, desc, interface=False):
        ref = self.b.imethodref if interface else self.b.methodref
        return self._u2(0xB8, ref(cls, name, desc))

    def invokeinterface(self, cls, name, desc, count=1):
        self._u2(0xB9, self.b.imethodref(cls, name, desc))
        self.code.extend((count, 0))
        return self

    def invokedynamic(self, name, desc):
        self._u2(0xBA, self.b.invokedynamic(name, desc))
        self.code.extend((0, 0))
        return self

    def getstatic(self, cls, name, desc):
        return self._u2(0xB2, self.b.fieldref(cls, name, desc))

    def putstatic(self, cls, name, desc):
        return self._u2(0xB3, self.b.fieldref(cls, name, desc))

    def getfield(self, cls, name, desc):
        return self._u2(0xB4, self.b.fieldref(cls, name, desc))

    def putfield(self, cls, name, desc):
        return self._u2(0xB5, self.b.fieldref(cls, name, desc))

    def new(self, cls):
        return self._u2(0xBB, self.b.cls(cls))

    def anewarray(self, cls):
        return self._u2(0xBD, self.b.cls(cls))

    def checkcast(self, cls):
        return self._u2(0xC0, self.b.cls(cls))

    def instanceof(self, cls):
        return self._u2(0xC1, self.b.cls(cls))

    def multianewarray(self, cls, dims):
        self._u2(0xC5, self.b.cls(cls))
        self.code.append(dims)
        return self

    def ldc_class(self, cls):
        idx = self.b.cls(cls)
        if idx > 255:
            return self._u2(0x13, idx)
        return self.op(0x12, idx)

    def ldc_int(self, value):
        idx = self.b.integer(value)
        if idx > 255:
            return self._u2(0x13, idx)
        return self.op(0x12, idx)

    def ldc_string(self, text):
        idx = self.b.string(text)
        if idx > 255:
            return self._u2(0x13, idx)
        return self.op(0x12, idx)

    def ldc2_long(self, value):
        return self._u2(0x14, self.b.long(value))

    def goto(self, offset):
        self.code.append(0xA7)
        self.code.extend(struct.pack(">h", offset))
        return self

    def wide_iinc(self, index, const):
        self.code.append(0xC4)
        self.code.append(0x84)
        self.code.extend(struct.pack(">Hh", index, const))
        return self

    def wide_iload(self, index):
        self.code.append(0xC4)
        self.code.append(0x15)
        self.code.extend(struct.pack(">H", index))
        return self

    def tableswitch(self, default=0, low=0, high=2, offsets=None):
        pos = len(self.code)
        self.code.append(0xAA)
        pad = (4 - ((pos + 1) % 4)) % 4
        self.code.extend(b"\x00" * pad)
        if offsets is None:
            offsets = [0] * (high - low + 1)
        self.code.extend(struct.pack(">iii", default, low, high))
        for off in offsets:
            self.code.extend(struct.pack(">i", off))
        return self

    def lookupswitch(self, default=0, pairs=()):
        pos = len(self.code)
        self.code.append(0xAB)
        pad = (4 - ((pos + 1) % 4)) % 4
        self.code.extend(b"\x00" * pad)
        self.code.extend(struct.pack(">ii", default, len(pairs)))
        for match, off in pairs:
            self.code.extend(struct.pack(">ii", match, off))
        return self


def default_init(builder, super_name="java/lang/Object"):
    """The standard constructor body javac emits: super(); return."""
    c = builder.code()
    c.aload(0).invokespecial(super_name, "<init>", "()V").return_()
    builder.add_method("<init>", "()V", code=c)


def make_jar(entries, extra_entries=()):
    """Zip (name, data) pairs deterministically; returns archive bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, data in list(extra_entries) + list(entries):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, data)
    return buf.getvalue()


def sample_network_jar():
    """The worked three-class example: two external calls, one internal."""
    a = ClassBuilder("sample/ClassA")
    default_init(a)
    a.add_method("method1", "()V", code=a.code().return_())
    c = a.code()
    c.aload(0).invokevirtual("sample/ClassA", "method1", "()V").return_()
    a.add_method("method2", "()V", code=c)

    b = ClassBuilder("sample/ClassB")
    default_init(b)
    b.add_method("method3", "()V", code=b.code().return_())

    n = ClassBuilder("sample/SampleNetwork")
    default_init(n)
    c = n.code()
    c.aload(1).invokevirtual("sample/ClassA", "method1", "()V")
    c.aload(2).invokevirtual("sample/ClassB", "method3", "()V")
    c.return_()
    n.add_method("doSomething", "(Lsample/ClassA;Lsample/ClassB;)V", code=c)

    return make_jar([
        ("sample/ClassA.class", a.build()),
        ("sample/ClassB.class", b.build()),
        ("sample/SampleNetwork.class", n.build()),
    ])


def synthetic_jar(n_classes=60, seed=7, package="app"):
    """A seeded multi-class archive: virtual/static/ctor calls + field/type use."""
    import random

    rng = random.Random(seed)
    names = [f"{package}/gen/Class{i:03d}" for i in range(n_classes)]
    entries = []
    for i, name in enumerate(names):
        cb = ClassBuilder(name)
        default_init(cb)
        cb.add_field("peer", f"L{names[(i + 1) % n_classes]};")
        for m in range(rng.randint(1, 4)):
            c = cb.code()
            for _ in range(rng.randint(1, 6)):
                target = rng.randrange(n_classes)
                kind = rng.randrange(5)
                tname = names[target]
                if kind == 0:
                    c.aload(0).getfield(name, "peer", f"L{names[(i + 1) % n_classes]};")
                    c.invokevirtual(tname, f"run{rng.randrange(3)}", "()V")
                elif kind == 1:
                    c.invokestatic(tname, f"helper{rng.randrange(3)}", "()V")
                elif kind == 2:
                    c.new(tname).dup().invokespecial(tname, "<init>", "()V").pop()
                elif kind == 3:
                    c.aload(1).checkcast(tname).pop()
                else:
                    c.aload(0).invokevirtual(name, f"work{rng.randrange(3)}", "()V")
            c.return_()
            cb.add_method(f"work{m}", "(Ljava/lang/Object;)V", code=c)
        for m in range(3):
            cb.add_method(f"run{m}", "()V", code=cb.code().return_())
            cb.add_method(f"helper{m}", "()V", access=ACC_PUBLIC | ACC_STATIC,
                          code=cb.code().return_())
            cb.add_method(f"work{m}", "()V", code=cb.code().return_())
        entries.append((name + ".class", cb.build()))
    return make_jar(entries)
