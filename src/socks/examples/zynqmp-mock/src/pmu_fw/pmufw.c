/* platform management unit firmware */
int main(void) { return 0; }
