"""Assembler tests: syntax, labels, encoding, errors."""

import pytest

from repro.hw.isa import Assembler, AssemblyError, Imm, MemRef, Reg


@pytest.fixture
def asm():
    return Assembler(base=0x8000)


class TestBasics:
    def test_empty_program(self, asm):
        program = asm.assemble("")
        assert program.instructions == []
        assert program.image == b""

    def test_comments_and_blank_lines(self, asm):
        program = asm.assemble("""
            ; a comment
            nop   ; trailing comment

            hlt
        """)
        assert [i.op for i in program.instructions] == ["nop", "hlt"]

    def test_base_address(self, asm):
        program = asm.assemble("nop")
        assert program.instructions[0].addr == 0x8000

    def test_instruction_sizes_accumulate(self, asm):
        program = asm.assemble("nop\nmov ax, 5\nhlt")
        insns = program.instructions
        assert insns[1].addr == insns[0].addr + insns[0].size
        assert insns[2].addr == insns[1].addr + insns[1].size
        assert len(program.image) == sum(i.size for i in insns)

    def test_unknown_mnemonic(self, asm):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            asm.assemble("frobnicate ax")

    def test_wrong_arity(self, asm):
        with pytest.raises(AssemblyError, match="expects"):
            asm.assemble("mov ax")


class TestOperands:
    def test_register_operand(self, asm):
        insn = asm.assemble("mov ax, bx").instructions[0]
        assert insn.operands == (Reg("ax"), Reg("bx"))

    def test_immediate_decimal_and_hex(self, asm):
        program = asm.assemble("mov ax, 42\nmov bx, 0xFF")
        assert program.instructions[0].operands[1] == Imm(42)
        assert program.instructions[1].operands[1] == Imm(0xFF)

    def test_memory_operand_forms(self, asm):
        program = asm.assemble("""
            mov ax, [bx]
            mov ax, [bx+8]
            mov ax, [bx-4]
            mov ax, [0x100]
        """)
        ops = [i.operands[1] for i in program.instructions]
        assert ops[0] == MemRef("bx", 0)
        assert ops[1] == MemRef("bx", 8)
        assert ops[2] == MemRef("bx", -4)
        assert ops[3] == MemRef(None, 0x100)

    def test_bad_memory_operand(self, asm):
        with pytest.raises(AssemblyError):
            asm.assemble("mov ax, [qq+3]")

    def test_mode_keywords(self, asm):
        insn = asm.assemble("here:\nljmp mode32, here").instructions[0]
        assert insn.operands[0] == Imm(32)


class TestLabels:
    def test_forward_reference(self, asm):
        program = asm.assemble("""
            jmp end
            nop
        end:
            hlt
        """)
        hlt = program.instructions[-1]
        assert program.instructions[0].operands[0] == Imm(hlt.addr)
        assert program.labels["end"] == hlt.addr

    def test_backward_reference(self, asm):
        program = asm.assemble("""
        loop:
            dec ax
            jnz loop
            hlt
        """)
        assert program.instructions[1].operands[0] == Imm(0x8000)

    def test_duplicate_label(self, asm):
        with pytest.raises(AssemblyError, match="duplicate"):
            asm.assemble("a:\nnop\na:\nnop")

    def test_undefined_symbol(self, asm):
        with pytest.raises(AssemblyError, match="undefined"):
            asm.assemble("jmp nowhere")

    def test_entry_defaults_to_base(self, asm):
        program = asm.assemble("nop")
        assert program.entry() == 0x8000

    def test_entry_prefers_start_label(self, asm):
        program = asm.assemble("nop\n_start:\nhlt")
        assert program.entry() == program.labels["_start"]

    def test_jcc_aliases(self, asm):
        program = asm.assemble("x:\njz x\njnz x\njb x\njae x")
        assert [i.op for i in program.instructions] == ["je", "jne", "jc", "jnc"]


class TestEncoding:
    def test_image_is_deterministic(self, asm):
        src = "mov ax, 1\nadd ax, 2\nhlt"
        assert asm.assemble(src).image == asm.assemble(src).image

    def test_different_programs_differ(self, asm):
        a = asm.assemble("mov ax, 1")
        b = asm.assemble("mov ax, 2")
        assert a.image != b.image

    def test_image_length(self, asm):
        program = asm.assemble("nop\nhlt")
        assert len(program.image) == 2
